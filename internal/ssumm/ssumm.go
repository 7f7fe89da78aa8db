// Package ssumm provides the SSumM baseline (Lee et al., KDD 2020), the
// state-of-the-art non-personalized graph summarizer that PeGaSus is based
// on. Per §III-G it differs from PeGaSus in exactly three ways, all realized
// as presets of the shared engine in internal/core:
//
//   - non-personalized objective: uniform weights (W_uv = 1);
//   - fixed threshold schedule θ(t) = (1+t)^{-1} (0 at t_max) instead of
//     adaptive thresholding;
//   - best-of-two encodings (entropy coding vs error correction) when
//     converting reconstruction error between two supernodes into bits.
package ssumm

import (
	"context"

	"pegasus/internal/core"
	"pegasus/internal/graph"
)

// Config parameterizes SSumM.
type Config struct {
	// BudgetBits is the size budget k in bits; if zero, BudgetRatio is used.
	BudgetBits float64
	// BudgetRatio expresses the budget as a fraction of Size(G); default 0.5.
	BudgetRatio float64
	// MaxIter is t_max (default 20, §V-A).
	MaxIter int
	// Seed drives all randomness.
	Seed int64
	// Trace, when non-nil, receives per-iteration statistics.
	Trace func(core.IterStats)
}

// Summarize runs SSumM on g.
func Summarize(g *graph.Graph, cfg Config) (*core.Result, error) {
	//lint:ctxflow public convenience entry point for callers without a context; SummarizeCtx is the propagating path
	return SummarizeCtx(context.Background(), g, cfg)
}

// SummarizeCtx is Summarize with cooperative cancellation.
func SummarizeCtx(ctx context.Context, g *graph.Graph, cfg Config) (*core.Result, error) {
	return core.SummarizeNonPersonalizedCtx(ctx, g, core.Config{
		BudgetBits:  cfg.BudgetBits,
		BudgetRatio: cfg.BudgetRatio,
		MaxIter:     cfg.MaxIter,
		Seed:        cfg.Seed,
		Encoding:    core.BestOfTwo,
		Threshold:   core.FixedSchedule,
		Trace:       cfg.Trace,
	})
}
