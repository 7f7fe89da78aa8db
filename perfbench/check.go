package main

import (
	"encoding/json"
	"fmt"
	"math"

	"pegasus"
)

// The answer shapes of the query endpoints, decoded with the ranked lists
// kept raw so the probe phase can compare answers byte for byte.
type (
	queryAnswer struct {
		Kind       string             `json:"kind"`
		Node       uint32             `json:"node"`
		Shard      int                `json:"shard"`
		Cached     bool               `json:"cached"`
		Generation uint64             `json:"generation"`
		Scores     []float64          `json:"scores"`
		Dist       []int32            `json:"dist"`
		Top        json.RawMessage    `json:"top"`
		Trace      *pegasus.TraceView `json:"trace"`
	}
	batchAnswer struct {
		Kind        string             `json:"kind"`
		Generation  uint64             `json:"generation"`
		ShardGroups int                `json:"shard_groups"`
		Items       []batchItem        `json:"items"`
		Trace       *pegasus.TraceView `json:"trace"`
	}
	batchItem struct {
		Node   uint32          `json:"node"`
		Shard  int             `json:"shard"`
		Cached bool            `json:"cached"`
		Error  string          `json:"error"`
		Top    json.RawMessage `json:"top"`
	}
	nodeScore struct {
		Node  uint32  `json:"node"`
		Score float64 `json:"score"`
	}
)

// checkAnswer decodes one 2xx answer to o and checks it; it returns the
// answer's span timeline (nil unless requested) and "" or a failure.
func checkAnswer(o *op, body []byte, n int) (*pegasus.TraceView, string) {
	if o.kind == opBatch {
		var a batchAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, "undecodable batch answer: " + err.Error()
		}
		if len(a.Items) != batchSize {
			return a.Trace, fmt.Sprintf("batch answered %d of %d items", len(a.Items), batchSize)
		}
		for i, it := range a.Items {
			if it.Error != "" {
				return a.Trace, fmt.Sprintf("batch item %d failed: %s", i, it.Error)
			}
			if it.Node != o.nodes[i] {
				return a.Trace, fmt.Sprintf("batch item %d answers node %d, asked %d", i, it.Node, o.nodes[i])
			}
			if _, msg := checkTop(it.Top, n); msg != "" {
				return a.Trace, fmt.Sprintf("batch item %d: %s", i, msg)
			}
		}
		return a.Trace, ""
	}
	var a queryAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, "undecodable answer: " + err.Error()
	}
	if a.Node != o.nodes[0] {
		return a.Trace, fmt.Sprintf("answers node %d", a.Node)
	}
	switch o.kind {
	case opTopkRWR, opTopkPHP:
		_, msg := checkTop(a.Top, n)
		return a.Trace, msg
	case opHop:
		return a.Trace, checkHop(a.Dist, n, o.nodes[0])
	default:
		return a.Trace, checkVector(a.Scores, n)
	}
}

// checkTop checks a ranked answer: defaultK distinct in-range nodes with
// finite non-negative scores in descending order.
func checkTop(raw json.RawMessage, n int) ([]nodeScore, string) {
	var top []nodeScore
	if err := json.Unmarshal(raw, &top); err != nil {
		return nil, "undecodable top list: " + err.Error()
	}
	if want := min(defaultK, n); len(top) != want {
		return top, fmt.Sprintf("top list holds %d nodes, want %d", len(top), want)
	}
	seen := make(map[uint32]bool, len(top))
	for i, e := range top {
		switch {
		case int(e.Node) >= n:
			return top, fmt.Sprintf("top node %d out of range", e.Node)
		case seen[e.Node]:
			return top, fmt.Sprintf("top node %d repeated", e.Node)
		case math.IsNaN(e.Score) || math.IsInf(e.Score, 0) || e.Score < 0:
			return top, fmt.Sprintf("top score %v not finite and non-negative", e.Score)
		case i > 0 && e.Score > top[i-1].Score:
			return top, fmt.Sprintf("top scores not descending at rank %d", i)
		}
		seen[e.Node] = true
	}
	return top, ""
}

// checkVector checks a score vector: length |V|, finite, non-negative.
func checkVector(scores []float64, n int) string {
	if len(scores) != n {
		return fmt.Sprintf("vector length %d, want %d", len(scores), n)
	}
	for i, v := range scores {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Sprintf("score[%d] = %v not finite and non-negative", i, v)
		}
	}
	return ""
}

// checkHop checks a hop-distance vector: length |V|, distance 0 at the query
// node, and no entry below -1 (unreached).
func checkHop(dist []int32, n int, q uint32) string {
	if len(dist) != n {
		return fmt.Sprintf("distance vector length %d, want %d", len(dist), n)
	}
	if dist[q] != 0 {
		return fmt.Sprintf("distance %d at the query node", dist[q])
	}
	for i, d := range dist {
		if d < -1 {
			return fmt.Sprintf("distance[%d] = %d", i, d)
		}
	}
	return ""
}
