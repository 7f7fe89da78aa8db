// Package selection implements linear-time order statistics. The paper's
// adaptive thresholding (§III-E) sets θ to the ⌊β·|L|⌋-th largest entry of
// the rejected-reduction list L each iteration, and its complexity argument
// (Theorem 1) relies on an O(|L|) selection such as median of medians [27].
package selection

import "sort"

// KthLargest returns the k-th largest element of xs (1-based: k=1 is the
// maximum). It runs in expected O(n) using quickselect with median-of-medians
// pivots (worst-case linear). xs is not modified. It panics if k is out of
// range or xs is empty.
func KthLargest(xs []float64, k int) float64 {
	if len(xs) == 0 {
		panic("selection: empty input")
	}
	if k < 1 || k > len(xs) {
		panic("selection: k out of range")
	}
	buf := make([]float64, len(xs))
	copy(buf, xs)
	// k-th largest is the (n-k)-th smallest (0-based).
	return selectKth(buf, len(buf)-k)
}

// selectKth returns the element that would be at index k if buf were sorted
// ascending. It mutates buf.
func selectKth(buf []float64, k int) float64 {
	lo, hi := 0, len(buf)
	for hi-lo > 5 {
		pivot := medianOfMedians(buf[lo:hi])
		lt, gt := partition3(buf, lo, hi, pivot)
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return pivot
		}
	}
	seg := buf[lo:hi]
	sort.Float64s(seg)
	return seg[k-lo]
}

// partition3 performs a three-way partition of buf[lo:hi] around pivot and
// returns boundaries (lt, gt) such that buf[lo:lt] < pivot,
// buf[lt:gt] == pivot, buf[gt:hi] > pivot.
func partition3(buf []float64, lo, hi int, pivot float64) (int, int) {
	lt, i, gt := lo, lo, hi
	for i < gt {
		switch {
		case buf[i] < pivot:
			buf[i], buf[lt] = buf[lt], buf[i]
			lt++
			i++
		case buf[i] > pivot:
			gt--
			buf[i], buf[gt] = buf[gt], buf[i]
		default:
			i++
		}
	}
	return lt, gt
}

// medianOfMedians returns a pivot guaranteed to be between the 30th and 70th
// percentile of xs, by the classic groups-of-5 construction [27].
func medianOfMedians(xs []float64) float64 {
	n := len(xs)
	if n <= 5 {
		return median5(xs)
	}
	medians := make([]float64, 0, (n+4)/5)
	for i := 0; i < n; i += 5 {
		j := i + 5
		if j > n {
			j = n
		}
		medians = append(medians, median5(xs[i:j]))
	}
	return selectKth(medians, len(medians)/2)
}

// median5 returns the median of at most 5 elements without mutating input.
func median5(xs []float64) float64 {
	var tmp [5]float64
	s := tmp[:len(xs)]
	copy(s, xs)
	sort.Float64s(s)
	return s[len(s)/2]
}
