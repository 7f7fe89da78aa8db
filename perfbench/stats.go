package main

import (
	"math"
	"slices"
	"time"
)

// tailLadder is the set of tail percentiles a timing may be reported at,
// highest first. tailPercentile picks the highest one that still leaves at
// least minBeyond samples above it, so a "p99" is never the maximum of a
// hundred samples wearing a percentile's name.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples a reported tail percentile must have
// beyond it.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder with at least
// minBeyond of n samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted: the value
// at rank ceil(p/100·n), so exactly floor((100-p)/100·n) samples lie beyond
// it. The rank is rounded with a tolerance, because p/100·n is inexact in
// binary (99.9/100·10000 evaluates to just above 9990). sorted must be
// ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	k := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	k = max(0, min(k, len(sorted)-1))
	return sorted[k]
}

// timing is one timing as the benchmark reports it: the median, the highest
// tail percentile with minBeyond samples beyond it, and the sample count.
type timing struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// summarize reduces samples (in any order; sorted in place) to a timing.
func summarize(samples []float64) timing {
	t := timing{N: len(samples)}
	if len(samples) == 0 {
		return t
	}
	slices.Sort(samples)
	t.P50 = percentile(samples, 50)
	if p := tailPercentile(len(samples)); p > 50 {
		t.TailPct, t.Tail = p, percentile(samples, p)
	}
	return t
}

// median returns the median of samples (sorted in place), averaging the two
// middle values of an even count; 0 for no samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	m := len(samples) / 2
	if len(samples)%2 == 1 {
		return samples[m]
	}
	return (samples[m-1] + samples[m]) / 2
}

// mean returns the arithmetic mean of samples; 0 for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// span is one timed interval of a timeline, in microseconds from the
// timeline's origin; Parent indexes the enclosing span (-1 for roots).
type span struct {
	Name   string
	Parent int
	Start  int64
	End    int64
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals, clipped to the span. Children of one span may
// overlap — parallel shard builds and batch shard groups do — so the union,
// not the sum, is subtracted.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[i] = (s.End - s.Start) - unionLength(iv)
	}
	return out
}

// unionLength returns the total length covered by the intervals (sorted in
// place by start).
func unionLength(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		curHi = max(curHi, x[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

func percentileOf(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return percentile(s, p)
}

// maxBlocks bounds the blocks blockPercentile splits a phase into.
const maxBlocks = 4

// blockPercentile splits latencies, in schedule order, into up to maxBlocks
// contiguous blocks of at least minTailRequests each and returns the median
// over blocks of each block's p-th percentile, so a host stall confined to
// one block does not move it.
func blockPercentile(lat []float64, p float64) float64 {
	if len(lat) == 0 {
		return math.NaN()
	}
	b := max(1, min(maxBlocks, len(lat)/minTailRequests))
	vals := make([]float64, b)
	for i := range vals {
		vals[i] = percentileOf(lat[i*len(lat)/b:(i+1)*len(lat)/b], p)
	}
	return median(vals)
}

// windowRates splits a closed-loop phase into whole-second-or-longer
// windows and returns the completion rate of each; their median is
// query_rps_max, so one window slowed by the host does not move it.
func windowRates(recs []record, elapsed time.Duration) []float64 {
	n := max(1, int(elapsed/time.Second))
	width := elapsed / time.Duration(n)
	rates := make([]float64, n)
	for _, r := range recs {
		if w := int(r.end / width); !r.failed && w < n {
			rates[w]++
		}
	}
	for i := range rates {
		rates[i] /= width.Seconds()
	}
	return rates
}
