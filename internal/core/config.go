// Package core implements PeGaSus (Personalized Graph Summarization with
// Scalability), the paper's linear-time algorithm (Alg. 1): shingle-based
// candidate generation (§III-C), greedy merging with selective superedge
// addition driven by the relative personalized cost reduction (§III-B/D),
// adaptive thresholding (§III-E) and final sparsification (§III-F).
//
// The same engine, configured with uniform weights, the fixed threshold
// schedule θ(t) = (1+t)^{-1} and best-of-two encodings, realizes the SSumM
// baseline (§III-G); package ssumm provides that preset.
package core

import (
	"fmt"
	"math"

	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

// CostMode selects the merge criterion.
type CostMode int

const (
	// RelativeCost ranks merges by the relative cost reduction of Eq. (11) —
	// the PeGaSus default.
	RelativeCost CostMode = iota
	// AbsoluteCost ranks merges by the absolute reduction of Eq. (10); kept
	// for the online-appendix ablation showing why Eq. (11) is preferred.
	AbsoluteCost
)

// Encoding selects how reconstruction error between two supernodes is
// converted into bits.
type Encoding int

const (
	// ErrorCorrection charges 2·log2|V| bits per erroneous unordered pair
	// (Footnote 4) — the PeGaSus choice.
	ErrorCorrection Encoding = iota
	// BestOfTwo additionally considers a binomial-entropy encoding of each
	// superedge block and charges the cheaper of the two — the SSumM choice
	// (§III-G "assumes the best of two encoding schemes").
	BestOfTwo
)

// IterStats captures the engine state after one outer iteration; delivered
// to Config.Trace when set.
type IterStats struct {
	Iteration  int
	Theta      float64 // threshold used during the iteration
	NumSuper   int     // |S| after the iteration
	NumSupered int     // |P| after the iteration
	SizeBits   float64 // Eq. (3) after the iteration
	Merges     int     // merges performed this iteration
	Rejections int     // failed merge attempts this iteration (|L| growth)
	Groups     int     // candidate groups generated (merging stops once within budget)

	// MergeRounds counts the iteration's merge rounds (one sampled batch
	// of |Ci| pairs each, Alg. 2) and PairsScored the distinct pairs they
	// evaluated. MassAccumulations counts the slot mass accumulations of
	// those rounds, and NeighborVisits the adjacency entries they read.
	// All four are exact: they repeat for a fixed graph and config.
	MergeRounds       int
	PairsScored       int
	MassAccumulations int
	NeighborVisits    int
}

// Config parameterizes Summarize. Zero values select the paper defaults.
type Config struct {
	// Targets is the target node set T. Empty means T = V (non-personalized;
	// Eq. (1) degenerates to plain reconstruction error, §III-G).
	Targets []graph.NodeID
	// Alpha is the degree of personalization α ≥ 1 (default 1.25, §V-A).
	Alpha float64
	// Beta is the adaptive-thresholding parameter β ∈ (0,1] (default 0.1).
	Beta float64
	// MaxIter is t_max, the maximum number of outer iterations (default 20).
	MaxIter int
	// BudgetBits is the size budget k in bits. If zero, BudgetRatio is used.
	BudgetBits float64
	// BudgetRatio expresses the budget as a fraction of Size(G) (Eq. 4);
	// default 0.5.
	BudgetRatio float64
	// Seed drives all randomness (hash functions, pair sampling).
	Seed int64
	// MaxGroupSize caps candidate group sizes (default 500, §III-C).
	MaxGroupSize int
	// MaxSplitDepth caps recursive shingle splitting (default 10, §III-C).
	MaxSplitDepth int
	// CostMode: RelativeCost (default, Eq. 11) or AbsoluteCost (Eq. 10).
	CostMode CostMode
	// Encoding: ErrorCorrection (default) or BestOfTwo (SSumM).
	Encoding Encoding
	// Threshold: AdaptiveThreshold (default, §III-E, driven by Beta) or
	// FixedSchedule (SSumM, §III-G, ending at MaxIter).
	Threshold Threshold
	// RandomGroups replaces shingle-based candidate generation with uniform
	// random grouping — the ablation for §III-C's claim that "uniform
	// sampling is likely to result in pairs of supernodes whose merger does
	// not reduce the personalized cost much".
	RandomGroups bool
	// Trace, when non-nil, receives per-iteration statistics.
	Trace func(IterStats)
}

// The paper defaults (§V-A), shared by withDefaults and ContentKey: the
// two MUST normalize identically, or a zero config and a spelled-out
// default config would fingerprint differently while building the same
// summary (breaking incremental reuse both ways).
const (
	defaultAlpha         = 1.25
	defaultBeta          = 0.1
	defaultMaxIter       = 20
	defaultMaxGroupSize  = 500
	defaultMaxSplitDepth = 10
)

// withDefaults fills zero fields with the paper defaults and validates.
func (c Config) withDefaults(g *graph.Graph) (Config, error) {
	if c.Alpha == 0 {
		c.Alpha = defaultAlpha
	}
	// NaN fails every comparison and +Inf passes them, so the real-valued
	// knobs are checked for finiteness first: a NaN α or budget would run
	// the whole build against a meaningless objective or bit budget.
	if !isFinite(c.Alpha) || c.Alpha < 1 {
		return c, fmt.Errorf("core: alpha must be finite and >= 1, got %v", c.Alpha)
	}
	if c.Beta == 0 {
		c.Beta = defaultBeta
	}
	// A NaN Beta would silently degenerate the θ schedule (threshold.go
	// clamps the selection index but never re-validates Beta).
	if math.IsNaN(c.Beta) || c.Beta < 0 || c.Beta > 1 {
		return c, fmt.Errorf("core: beta must be in (0,1], got %v", c.Beta)
	}
	if c.MaxIter == 0 {
		c.MaxIter = defaultMaxIter
	}
	if c.MaxIter < 1 {
		return c, fmt.Errorf("core: MaxIter must be positive, got %d", c.MaxIter)
	}
	if c.BudgetBits == 0 {
		if c.BudgetRatio == 0 {
			c.BudgetRatio = 0.5
		}
		if !isFinite(c.BudgetRatio) || c.BudgetRatio < 0 {
			return c, fmt.Errorf("core: BudgetRatio must be finite and positive, got %v", c.BudgetRatio)
		}
		c.BudgetBits = c.BudgetRatio * g.SizeBits()
	}
	if !isFinite(c.BudgetBits) || c.BudgetBits < 0 {
		return c, fmt.Errorf("core: BudgetBits must be finite and non-negative, got %v", c.BudgetBits)
	}
	if c.MaxGroupSize == 0 {
		c.MaxGroupSize = defaultMaxGroupSize
	}
	if c.MaxGroupSize < 2 {
		return c, fmt.Errorf("core: MaxGroupSize must be >= 2, got %d", c.MaxGroupSize)
	}
	if c.MaxSplitDepth == 0 {
		c.MaxSplitDepth = defaultMaxSplitDepth
	}
	if c.MaxSplitDepth < 1 {
		// A negative depth would skip every shingle division and chop all
		// of V randomly on the first iteration — silently degenerating to
		// the RandomGroups ablation. Reject it like the sibling knobs.
		return c, fmt.Errorf("core: MaxSplitDepth must be positive, got %d", c.MaxSplitDepth)
	}
	for _, t := range c.Targets {
		if int(t) >= g.NumNodes() {
			return c, fmt.Errorf("core: target %d out of range (|V|=%d)", t, g.NumNodes())
		}
	}
	return c, nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// ContentKey returns a canonical serialization of the configuration fields
// that determine summarization output for a fixed graph, target set and
// budget — every field except Targets, BudgetBits and BudgetRatio (supplied
// per shard by cluster builds) and Trace, which only observes the build.
// Zero-valued fields are normalized to the paper defaults first, so a zero
// config and an explicitly-spelled-default config share one key. The
// threshold schedule is appended only when it is FixedSchedule, so every
// adaptive-schedule key reads as it did before the schedule was a field.
func (c Config) ContentKey() string {
	// Mirror withDefaults' graph-independent normalization exactly: two
	// configs that summarize identically must share a key.
	alpha, beta := c.Alpha, c.Beta
	if alpha == 0 {
		alpha = defaultAlpha
	}
	if beta == 0 {
		beta = defaultBeta
	}
	maxIter, maxGroup, maxSplit := c.MaxIter, c.MaxGroupSize, c.MaxSplitDepth
	if maxIter == 0 {
		maxIter = defaultMaxIter
	}
	if maxGroup == 0 {
		maxGroup = defaultMaxGroupSize
	}
	if maxSplit == 0 {
		maxSplit = defaultMaxSplitDepth
	}
	key := fmt.Sprintf("pegasus1|a%x|b%x|i%d|s%d|g%d|d%d|c%d|e%d|r%t",
		math.Float64bits(alpha), math.Float64bits(beta), maxIter, c.Seed,
		maxGroup, maxSplit, c.CostMode, c.Encoding, c.RandomGroups)
	if c.Threshold == FixedSchedule {
		key += "|tfixed"
	}
	return key
}

// Result is the output of Summarize.
type Result struct {
	// Summary is the final summary graph.
	Summary *summary.Summary
	// Iterations actually executed (≤ MaxIter; stops early once within
	// budget).
	Iterations int
	// DroppedSuperedges removed by final sparsification (§III-F).
	DroppedSuperedges int
	// FinalTheta is the threshold after the last iteration.
	FinalTheta float64
	// BudgetMet reports whether the final size is within the budget.
	// Sparsification can only drop superedges (§III-F); the node-membership
	// term |V|·log2|S| is a hard floor, so extremely small budgets may be
	// unreachable (the paper's experiments use ratios ≥ 0.1 where this never
	// occurs).
	BudgetMet bool
}
