package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func topJSON(entries ...nodeScore) json.RawMessage {
	raw, _ := json.Marshal(entries)
	return raw
}

func descending(n int) []nodeScore {
	out := make([]nodeScore, n)
	for i := range out {
		out[i] = nodeScore{Node: uint32(i), Score: float64(n - i)}
	}
	return out
}

func TestCheckTopRejectsMalformedRankings(t *testing.T) {
	good := descending(defaultK)
	if _, msg := checkTop(topJSON(good...), 100); msg != "" {
		t.Fatalf("valid ranking rejected: %s", msg)
	}
	for name, mutate := range map[string]func([]nodeScore){
		"short":        nil,
		"ascending":    func(e []nodeScore) { e[3].Score = 100 },
		"repeated":     func(e []nodeScore) { e[4].Node = e[2].Node },
		"out of range": func(e []nodeScore) { e[0].Node = 100 },
		"negative":     func(e []nodeScore) { e[9].Score = -1 },
	} {
		e := append([]nodeScore(nil), good...)
		if mutate == nil {
			e = e[:defaultK-1]
		} else {
			mutate(e)
		}
		if _, msg := checkTop(topJSON(e...), 100); msg == "" {
			t.Errorf("%s ranking accepted", name)
		}
	}
}

func TestCheckAnswerShapes(t *testing.T) {
	n := 20
	vec := make([]float64, n)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = 2
	}
	dist[3] = 0
	cases := []struct {
		name string
		o    op
		body string
		ok   bool
	}{
		{"vector", op{kind: opRWR, nodes: [4]uint32{3}}, fmt.Sprintf(`{"node":3,"scores":%s}`, mustJSON(vec)), true},
		{"short vector", op{kind: opRWR, nodes: [4]uint32{3}}, `{"node":3,"scores":[0.5]}`, false},
		{"wrong node", op{kind: opRWR, nodes: [4]uint32{4}}, fmt.Sprintf(`{"node":3,"scores":%s}`, mustJSON(vec)), false},
		{"hop", op{kind: opHop, nodes: [4]uint32{3}}, fmt.Sprintf(`{"node":3,"dist":%s}`, mustJSON(dist)), true},
		{"hop not zero at q", op{kind: opHop, nodes: [4]uint32{4}}, fmt.Sprintf(`{"node":4,"dist":%s}`, mustJSON(dist)), false},
		{"batch item error", op{kind: opBatch, nodes: [4]uint32{1, 2, 3, 4}},
			`{"items":[{"node":1,"error":"query timed out"},{"node":2},{"node":3},{"node":4}]}`, false},
	}
	for _, c := range cases {
		_, msg := checkAnswer(&c.o, []byte(c.body), n)
		if (msg == "") != c.ok {
			t.Errorf("%s: ok=%v, message %q", c.name, c.ok, msg)
		}
	}
	top := string(topJSON(descending(defaultK)...))
	items := make([]string, batchSize)
	for i := range items {
		items[i] = fmt.Sprintf(`{"node":%d,"top":%s}`, i+1, top)
	}
	body := `{"items":[` + strings.Join(items, ",") + `]}`
	if _, msg := checkAnswer(&op{kind: opBatch, nodes: [4]uint32{1, 2, 3, 4}}, []byte(body), n); msg != "" {
		t.Errorf("valid batch rejected: %s", msg)
	}
}

func mustJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(raw)
}
