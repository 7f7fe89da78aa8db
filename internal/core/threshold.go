package core

import "pegasus/internal/selection"

// Threshold selects how the merge threshold θ moves across iterations. θ
// trades exploitation (low θ: merge aggressively now) against exploration
// (high θ: wait for better pairs from future candidate groups), §III-E.
// Both schedules start at θ = 0.5.
type Threshold int

const (
	// AdaptiveThreshold is the PeGaSus schedule: θ becomes the ⌊β·|L|⌋-th
	// largest rejected reduction each iteration (selected in O(|L|) time).
	// Since every entry of L is below the current θ, θ decreases
	// monotonically, gradually shifting from exploration to exploitation.
	//
	// One guard beyond the paper's pseudocode: θ is additionally capped by
	// the SSumM schedule (1+t)^{-1}. On small or very sparse inputs the
	// rejected argmax reductions can pile up immediately below the current
	// θ, making the ⌊β|L|⌋-th largest decrease only infinitesimally and
	// stalling merging far above tight budgets — a regime the paper's large
	// dense graphs do not exhibit (its Fig. 7 curves reach ratio 0.1, which
	// on Caida requires merging to ~60 of 26k supernodes within t_max = 20
	// iterations). The cap restores that guaranteed decay while keeping the
	// data-driven quantile in charge whenever it is the smaller of the two;
	// see DESIGN.md "The θ cap".
	AdaptiveThreshold Threshold = iota
	// FixedSchedule is the SSumM schedule (§III-G): θ(t) = (1+t)^{-1} for
	// t < MaxIter and 0 from t = MaxIter on, with t starting at 1.
	FixedSchedule
)

// initialTheta is θ for the first iteration under either schedule.
const initialTheta = 0.5

// nextTheta returns θ for iteration iter+1 given the relative reductions
// rejected during iteration iter (the list L) and the current θ, under the
// schedule c.Threshold with c's Beta and MaxIter.
func (c Config) nextTheta(iter int, rejected []float64, current float64) float64 {
	t := iter + 1 // θ for the upcoming iteration
	schedule := 1 / float64(1+t)
	if c.Threshold == FixedSchedule {
		if t >= c.MaxIter {
			return 0
		}
		return schedule
	}
	if len(rejected) == 0 {
		if current < schedule {
			return current
		}
		return schedule
	}
	k := int(c.Beta * float64(len(rejected)))
	k = max(1, min(k, len(rejected)))
	if sel := selection.KthLargest(rejected, k); sel < schedule {
		return sel
	}
	return schedule
}
