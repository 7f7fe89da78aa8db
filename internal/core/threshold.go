package core

import "pegasus/internal/selection"

// ThresholdPolicy decides the merge threshold θ across iterations. θ trades
// exploitation (low θ: merge aggressively now) against exploration (high θ:
// wait for better pairs from future candidate groups), §III-E.
type ThresholdPolicy interface {
	// Initial returns θ for the first iteration.
	Initial() float64
	// Next returns θ for iteration iter+1 given the relative reductions
	// rejected during iteration iter (the list L) and the current θ.
	Next(iter int, rejected []float64, current float64) float64
}

// AdaptiveThreshold is the PeGaSus policy: θ starts at 0.5 and becomes the
// ⌊β·|L|⌋-th largest rejected reduction each iteration (selected in O(|L|)
// time). Since every entry of L is below the current θ, θ decreases
// monotonically, gradually shifting from exploration to exploitation.
//
// One guard beyond the paper's pseudocode: θ is additionally capped by the
// SSumM schedule (1+t)^{-1}. On small or very sparse inputs the rejected
// argmax reductions can pile up immediately below the current θ, making the
// ⌊β|L|⌋-th largest decrease only infinitesimally and stalling merging far
// above tight budgets — a regime the paper's large dense graphs do not
// exhibit (its Fig. 7 curves reach ratio 0.1, which on Caida requires
// merging to ~60 of 26k supernodes within t_max = 20 iterations). The cap
// restores that guaranteed decay while keeping the data-driven quantile in
// charge whenever it is the smaller of the two; see DESIGN.md "The θ cap".
type AdaptiveThreshold struct {
	// Beta ∈ (0,1]: larger values decrease θ faster (§III-E). Beta ≈ 0
	// selects the largest rejected entry (slowest decay).
	Beta float64
}

// Initial implements ThresholdPolicy.
func (a AdaptiveThreshold) Initial() float64 { return 0.5 }

// Next implements ThresholdPolicy.
func (a AdaptiveThreshold) Next(iter int, rejected []float64, current float64) float64 {
	cap := 1 / float64(1+iter+1) // the fixed-schedule value for iteration iter+1
	if len(rejected) == 0 {
		if current < cap {
			return current
		}
		return cap
	}
	k := int(a.Beta * float64(len(rejected)))
	if k < 1 {
		k = 1
	}
	if k > len(rejected) {
		k = len(rejected)
	}
	sel := selection.KthLargest(rejected, k)
	if sel < cap {
		return sel
	}
	return cap
}

// FixedSchedule is the SSumM policy (§III-G): θ(t) = (1+t)^{-1} for
// t < TMax and 0 afterwards. With t starting at 1, the initial threshold is
// 0.5, like PeGaSus.
type FixedSchedule struct {
	// TMax is t_max; at the final iteration the threshold drops to 0.
	TMax int
}

// Initial implements ThresholdPolicy.
func (f FixedSchedule) Initial() float64 { return 0.5 }

// Next implements ThresholdPolicy.
func (f FixedSchedule) Next(iter int, _ []float64, _ float64) float64 {
	t := iter + 1 // θ for the upcoming iteration
	if f.TMax > 0 && t >= f.TMax {
		return 0
	}
	return 1 / float64(1+t)
}
