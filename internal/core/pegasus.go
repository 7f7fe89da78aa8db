package core

import (
	"context"

	"pegasus/internal/graph"
	"pegasus/internal/obs"
	"pegasus/internal/weights"
)

// Summarize runs PeGaSus (Alg. 1) on g and returns a summary graph
// personalized to cfg.Targets within the bit budget.
func Summarize(g *graph.Graph, cfg Config) (*Result, error) {
	//lint:ctxflow public convenience entry point for callers without a context; SummarizeCtx is the propagating path
	return SummarizeCtx(context.Background(), g, cfg)
}

// SummarizeCtx is Summarize with cooperative cancellation: the engine checks
// ctx between candidate groups and returns ctx.Err() as soon as it fires.
func SummarizeCtx(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults(g)
	if err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(ctx, "build.weights")
	w, err := weights.New(g, cfg.Targets, cfg.Alpha)
	sp.AttrInt("nodes", g.NumNodes())
	sp.End()
	if err != nil {
		return nil, err
	}
	return summarizeWeighted(ctx, g, w, cfg)
}

// summarizeWeighted is the engine loop shared by PeGaSus and the SSumM
// preset (which supplies uniform weights).
func summarizeWeighted(ctx context.Context, g *graph.Graph, w *weights.Weights, cfg Config) (*Result, error) {
	eng := newEngine(g, w, cfg)
	theta := cfg.Threshold.Initial()
	iterations := 0
	finalTheta := theta

	for t := 1; t <= cfg.MaxIter && eng.sizeBits() > cfg.BudgetBits; t++ {
		iterations = t
		_, csp := obs.StartSpan(ctx, "build.candidates")
		groups := eng.candidateGroups(ctx, t)
		csp.AttrInt("iteration", t)
		csp.AttrInt("groups", len(groups))
		csp.End()
		var rejected []float64
		merges := 0
		sc := &eng.scorer
		rounds0, pairs0 := sc.rounds, sc.pairs
		accums0, visits0 := sc.memo.accumulations, sc.memo.visits
		_, msp := obs.StartSpan(ctx, "build.merge")
		for _, grp := range groups {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			merges += eng.mergeGroup(grp, theta, &rejected)
			if eng.sizeBits() <= cfg.BudgetBits {
				break
			}
		}
		rounds, pairs := sc.rounds-rounds0, sc.pairs-pairs0
		accums, visits := sc.memo.accumulations-accums0, sc.memo.visits-visits0
		msp.AttrInt("iteration", t)
		msp.AttrInt("groups", len(groups))
		msp.AttrInt("rounds", rounds)
		msp.AttrInt("pairs_scored", pairs)
		msp.AttrInt("merges", merges)
		msp.AttrInt("rejections", len(rejected))
		msp.AttrInt("mass_accumulations", accums)
		msp.AttrInt("neighbor_visits", visits)
		msp.End()
		if cfg.Trace != nil {
			cfg.Trace(IterStats{
				Iteration:  t,
				Theta:      theta,
				NumSuper:   eng.numSuper,
				NumSupered: eng.numP,
				SizeBits:   eng.sizeBits(),
				Merges:     merges,
				Rejections: len(rejected),
				Groups:     len(groups),

				MergeRounds:       rounds,
				PairsScored:       pairs,
				MassAccumulations: accums,
				NeighborVisits:    visits,
			})
		}
		theta = cfg.Threshold.Next(t, rejected, theta)
		finalTheta = theta
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dropped := 0
	if eng.sizeBits() > cfg.BudgetBits {
		_, ssp := obs.StartSpan(ctx, "build.sparsify")
		dropped = eng.sparsify(cfg.BudgetBits)
		ssp.AttrInt("dropped", dropped)
		ssp.End()
	}
	_, fsp := obs.StartSpan(ctx, "build.finalize")
	summ := eng.buildSummary()
	fsp.End()
	return &Result{
		Summary:           summ,
		Iterations:        iterations,
		DroppedSuperedges: dropped,
		FinalTheta:        finalTheta,
		BudgetMet:         eng.sizeBits() <= cfg.BudgetBits+1e-9,
	}, nil
}

// SummarizeNonPersonalized is a convenience wrapper for the T = V case: the
// objective reduces to the plain (unweighted) reconstruction error while
// keeping PeGaSus's adaptive thresholding and relative-cost search.
func SummarizeNonPersonalized(g *graph.Graph, cfg Config) (*Result, error) {
	//lint:ctxflow public convenience entry point for callers without a context; the Ctx variant is the propagating path
	return SummarizeNonPersonalizedCtx(context.Background(), g, cfg)
}

// SummarizeNonPersonalizedCtx is SummarizeNonPersonalized with cooperative
// cancellation.
func SummarizeNonPersonalizedCtx(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	cfg.Targets = nil
	cfg.Alpha = 1
	cfg, err := cfg.withDefaults(g)
	if err != nil {
		return nil, err
	}
	// withDefaults resets Alpha=0 to 1.25; force uniform weights.
	return summarizeWeighted(ctx, g, weights.Uniform(g.NumNodes()), cfg)
}
