package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 20; n <= 20000; n += 7 {
		p := tailPercentile(n)
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		if beyond := n - 1 - int(percentile(sorted, p)); beyond < minBeyond {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it", n, p, beyond)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 500, 99: 990, 99.9: 999, 100: 1000, 0: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

func TestSummarizeReportsTailWithCount(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(1000 - i) // unsorted on purpose
	}
	got := summarize(s)
	if got.N != 1000 || got.P50 != 500 || got.TailPct != 99 || got.Tail != 990 {
		t.Fatalf("summarize = %+v", got)
	}
	if got := summarize(s[:10]); got.TailPct != 0 || got.Tail != 0 {
		t.Fatalf("10 samples must report no tail: %+v", got)
	}
}

func TestSelfTimesSubtractUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},   // overlaps a
		{Name: "c", Parent: 0, Start: 80, End: 120},  // runs past the root
		{Name: "a.1", Parent: 1, Start: 15, End: 25}, // grandchild: not the root's
		{Name: "d", Parent: 0, Start: 35, End: 50},   // inside a ∪ b
	}
	got := selfTimes(spans)
	// root: 100 − |[10,60] ∪ [80,100]| = 100 − 70.
	want := []int64{30, 20, 30, 40, 10, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("mean = %v", m)
	}
	if !math.IsNaN(percentileOf(nil, 50)) {
		t.Error("percentile of no samples must be NaN, so the metric reads as not measured")
	}
}

func TestBlockPercentileIgnoresOneStalledBlock(t *testing.T) {
	lat := make([]float64, 4*minTailRequests)
	for i := range lat {
		lat[i] = float64(i%100) / 10 // p99 of every block: 9.8
	}
	for i := 0; i < minTailRequests; i++ {
		lat[i] += 50 // the first block stalled throughout
	}
	if got := blockPercentile(lat, 99); got != 9.8 {
		t.Fatalf("block p99 = %v, want 9.8 from the three unstalled blocks", got)
	}
	if got := blockPercentile(lat[:minTailRequests+10], 99); got != 59.8 {
		t.Fatalf("one block must be the whole phase: p99 = %v, want 59.8", got)
	}
}
