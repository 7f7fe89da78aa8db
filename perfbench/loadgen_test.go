package main

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"
)

var testPool = []uint32{3, 14, 15, 92, 65, 35, 89, 79, 32, 38}

func TestOpStreamsAreSeedDeterministic(t *testing.T) {
	for _, hot := range []bool{true, false} {
		a := newOpStream(7, hot, testPool, 1000)
		b := newOpStream(7, hot, testPool, 1000)
		c := newOpStream(8, hot, testPool, 1000)
		differ := false
		for i := 0; i < 5000; i++ {
			x, y, z := a.next(), b.next(), c.next()
			if x != y {
				t.Fatalf("hot=%v: op %d differs between equal seeds: %+v vs %+v", hot, i, x, y)
			}
			differ = differ || x != z
		}
		if !differ {
			t.Errorf("hot=%v: seeds 7 and 8 drew the same 5000 ops", hot)
		}
	}
}

func TestScheduleIsSeedDeterministicPoisson(t *testing.T) {
	const rate, count = 500.0, 10000
	a := schedule(newOpStream(3, true, testPool, 1000), rate, count)
	b := schedule(newOpStream(3, true, testPool, 1000), rate, count)
	if len(a) != len(b) {
		t.Fatalf("equal seeds scheduled %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) != count {
		t.Fatalf("%d arrivals, want %d", len(a), count)
	}
	// Poisson: the gaps are exponential, mean and standard deviation both
	// 1/rate.
	var sum, sq float64
	prev := time.Duration(0)
	for i, o := range a {
		if o.at < prev {
			t.Fatalf("arrival %d at %v before its predecessor", i, o.at)
		}
		g := (o.at - prev).Seconds()
		sum += g
		sq += g * g
		prev = o.at
	}
	m := sum / float64(len(a))
	sd := math.Sqrt(sq/float64(len(a)) - m*m)
	if math.Abs(m*rate-1) > 0.05 || math.Abs(sd*rate-1) > 0.05 {
		t.Fatalf("gap mean %v and sd %v, want both %v", m, sd, 1/rate)
	}
}

func TestZipfConcentratesOnThePool(t *testing.T) {
	s := newOpStream(11, true, testPool, 1000)
	in := map[uint32]bool{}
	for _, v := range testPool {
		in[v] = true
	}
	counts := map[uint32]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		v := s.node(famRWR)
		if !in[v] {
			t.Fatalf("hot node %d is not in the pool", v)
		}
		counts[v]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	// Zipf(1.1) over 10 ranks puts ~36% on the first; uniform would be 10%.
	if share := float64(top) / draws; share < 0.3 {
		t.Fatalf("hottest node drew %.2f of queries; Zipf should concentrate them", share)
	}
}

// A cold stream must not repeat a cache key until its family has used
// every node outside the pool, and must never draw a pool node.
func TestColdStreamDrawsEachKeyOnce(t *testing.T) {
	const n = 500
	s := newOpStream(13, false, testPool, n)
	outside := n - len(testPool)
	seen := [numFamilies]map[uint32]bool{}
	for f := range seen {
		seen[f] = map[uint32]bool{}
	}
	for i := 0; i < 20*n; i++ {
		o := s.next()
		f := opFamily[o.kind]
		k := 1
		if o.kind == opBatch {
			k = batchSize
		}
		for _, v := range o.nodes[:k] {
			if slices.Contains(testPool, v) || int(v) >= n {
				t.Fatalf("cold node %d is a pool node or out of range", v)
			}
			if len(seen[f]) == outside {
				seen[f] = map[uint32]bool{}
			}
			if seen[f][v] {
				t.Fatalf("family %d repeated node %d after %d of its %d nodes", f, v, len(seen[f]), outside)
			}
			seen[f][v] = true
		}
	}
}

func TestMixShares(t *testing.T) {
	s := newOpStream(5, false, nil, 1000)
	var counts [numOpKinds]int
	const draws = 100000
	for i := 0; i < draws; i++ {
		o := s.next()
		counts[o.kind]++
		if int(o.nodes[0]) >= 1000 {
			t.Fatalf("uniform node %d out of range", o.nodes[0])
		}
	}
	want := [numOpKinds]float64{0.70, 0.10, 0.10, 0.05, 0.05}
	for k, c := range counts {
		if got := float64(c) / draws; math.Abs(got-want[k]) > 0.01 {
			t.Errorf("%s share %.3f, want %.2f", opNames[k], got, want[k])
		}
	}
}

func TestAppendBodyIsTheAPIShape(t *testing.T) {
	for k := range numOpKinds {
		o := op{kind: k, nodes: [batchSize]uint32{7, 8, 9, 10}}
		var body map[string]any
		if err := json.Unmarshal(o.appendBody(nil), &body); err != nil {
			t.Fatalf("%s: %v", opNames[k], err)
		}
		switch k {
		case opBatch:
			if body["kind"] != "topk" || len(body["nodes"].([]any)) != batchSize {
				t.Errorf("batch body %v", body)
			}
		case opTopkPHP:
			if body["metric"] != "php" || body["node"] != 7.0 {
				t.Errorf("php body %v", body)
			}
		default:
			if len(body) != 1 || body["node"] != 7.0 {
				t.Errorf("%s body %v: every other parameter must be left to the API default", opNames[k], body)
			}
		}
	}
}

func TestBacklogMax(t *testing.T) {
	ms := time.Millisecond
	recs := []record{
		{sched: 0, start: 0},
		{sched: 1 * ms, start: 5 * ms}, // due while op 0 ran
		{sched: 2 * ms, start: 6 * ms},
		{sched: 3 * ms, start: 7 * ms},
		{sched: 20 * ms, start: 20 * ms},
	}
	if got := backlogMax(recs); got != 2 {
		t.Fatalf("backlogMax = %d, want 2 (ops 2 and 3 due when op 1 left)", got)
	}
}
