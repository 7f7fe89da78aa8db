// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) on the synthetic dataset stand-ins: one entry point per
// experiment, each returning a text table whose rows mirror the series the
// paper plots. EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"pegasus/internal/baselines/kgrass"
	"pegasus/internal/baselines/s2l"
	"pegasus/internal/baselines/saags"
	"pegasus/internal/core"
	"pegasus/internal/graph"
	"pegasus/internal/metrics"
	"pegasus/internal/queries"
	"pegasus/internal/ssumm"
	"pegasus/internal/summary"
)

// Scale bounds the work an experiment performs. The paper's full settings
// are infeasible inside unit tests; Quick keeps every experiment in seconds,
// Default in tens of seconds, Full in minutes.
type Scale struct {
	// Name labels the profile.
	Name string
	// Graph multiplies the stand-in node counts.
	Graph float64
	// Queries is the number of query nodes sampled per dataset (paper: 100,
	// or 500 for Fig. 12).
	Queries int
	// TestNodes is the number of test nodes for Fig. 5 (paper: 3).
	TestNodes int
	// Ratios is the compression-ratio sweep (paper: 0.1..0.9).
	Ratios []float64
	// Datasets restricts to these Short codes (nil = all six real graphs).
	Datasets []string
	// BaselineDatasets restricts the slow baselines (k-GraSS, S2L, SAAGs) to
	// these Short codes, mirroring the paper's o.o.t./o.o.m. entries on the
	// larger graphs.
	BaselineDatasets []string
	// RWR and PHP solver settings.
	RWR queries.RWRConfig
	PHP queries.PHPConfig
	// Seed drives all sampling.
	Seed int64
}

// Quick is the profile used by tests and the default `go test -bench` run.
var Quick = Scale{
	Name: "quick", Graph: 0.5, Queries: 8, TestNodes: 2,
	Ratios:           []float64{0.3, 0.5},
	Datasets:         []string{"LA", "CA"},
	BaselineDatasets: []string{"LA", "CA"},
	RWR:              queries.RWRConfig{Eps: 1e-6, MaxIter: 300},
	PHP:              queries.PHPConfig{Eps: 1e-6, MaxIter: 300},
	Seed:             1,
}

// Default is the profile used by cmd/pegasus-experiments without flags.
var Default = Scale{
	Name: "default", Graph: 1, Queries: 25, TestNodes: 3,
	Ratios:           []float64{0.1, 0.3, 0.5, 0.7, 0.9},
	Datasets:         nil,
	BaselineDatasets: []string{"LA", "CA", "DB"},
	RWR:              queries.RWRConfig{Eps: 1e-7, MaxIter: 500},
	PHP:              queries.PHPConfig{Eps: 1e-7, MaxIter: 500},
	Seed:             1,
}

// Full approaches the paper's settings (still on reduced-scale graphs).
var Full = Scale{
	Name: "full", Graph: 2, Queries: 100, TestNodes: 3,
	Ratios:           []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
	Datasets:         nil,
	BaselineDatasets: []string{"LA", "CA", "DB"},
	RWR:              queries.RWRConfig{Eps: 1e-8, MaxIter: 800},
	PHP:              queries.PHPConfig{Eps: 1e-8, MaxIter: 800},
	Seed:             1,
}

// Profiles maps profile names to scales.
var Profiles = map[string]Scale{"quick": Quick, "default": Default, "full": Full}

func (s Scale) wantsDataset(short string) bool {
	if len(s.Datasets) == 0 {
		return true
	}
	for _, d := range s.Datasets {
		if d == short {
			return true
		}
	}
	return false
}

func (s Scale) wantsBaseline(short string) bool {
	for _, d := range s.BaselineDatasets {
		if d == short {
			return true
		}
	}
	return false
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Append adds a row, formatting each cell with %v.
func (t *Table) Append(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Method names a summarization method in the comparison experiments.
type Method string

// The five summarizers compared in Figs. 7–8.
const (
	MPegasus Method = "PeGaSus"
	MSSumM   Method = "SSumM"
	MKGrass  Method = "k-GraSS"
	MSAAGs   Method = "SAAGs"
	MS2L     Method = "S2L"
)

// AllMethods lists the Fig. 7 lineup in paper order.
var AllMethods = []Method{MPegasus, MSSumM, MSAAGs, MS2L, MKGrass}

// summarizeResult carries a method's output plus bookkeeping.
type summarizeResult struct {
	s       *summary.Summary
	elapsed time.Duration
	// achievedRatio is AutoSizeBits/Size(G); for the supernode-budgeted
	// baselines it can deviate from the requested bit ratio.
	achievedRatio float64
}

// summarizeBy dispatches to a method. For PeGaSus, targets personalizes the
// summary; the baselines ignore targets (they are non-personalized). The
// supernode-count baselines are budgeted in supernodes (§V-A), so the count
// is bisected until the achieved bit ratio matches the requested one — the
// paper plots accuracy against the achieved compression ratio in bits.
func summarizeBy(m Method, g *graph.Graph, targets []graph.NodeID, ratio float64, seed int64) (summarizeResult, error) {
	switch m {
	case MPegasus:
		start := time.Now()
		res, err := core.Summarize(g, core.Config{Targets: targets, BudgetRatio: ratio, Seed: seed})
		if err != nil {
			return summarizeResult{}, err
		}
		return summarizeResult{res.Summary, time.Since(start), res.Summary.CompressionRatio(g)}, nil
	case MSSumM:
		start := time.Now()
		res, err := ssumm.Summarize(g, ssumm.Config{BudgetRatio: ratio, Seed: seed})
		if err != nil {
			return summarizeResult{}, err
		}
		return summarizeResult{res.Summary, time.Since(start), res.Summary.CompressionRatio(g)}, nil
	case MKGrass:
		return bisectSupernodes(g, ratio, func(k int) (*summary.Summary, error) {
			return kgrass.Summarize(g, kgrass.Config{TargetSupernodes: k, Seed: seed})
		})
	case MSAAGs:
		return bisectSupernodes(g, ratio, func(k int) (*summary.Summary, error) {
			return saags.Summarize(g, saags.Config{TargetSupernodes: k, Seed: seed})
		})
	case MS2L:
		return bisectSupernodes(g, ratio, func(k int) (*summary.Summary, error) {
			return s2l.Summarize(g, s2l.Config{K: k, Seed: seed})
		})
	default:
		return summarizeResult{}, fmt.Errorf("experiments: unknown method %q", m)
	}
}

// bisectSupernodes searches the supernode budget whose weighted summary size
// lands at the requested bit ratio (sizes grow with the supernode count).
// The reported time is that of the final (kept) run, so timing tables
// reflect one summarization, not the search.
func bisectSupernodes(g *graph.Graph, ratio float64, run func(k int) (*summary.Summary, error)) (summarizeResult, error) {
	lo, hi := 2, g.NumNodes()
	var best summarizeResult
	for step := 0; step < 7; step++ {
		k := (lo + hi) / 2
		start := time.Now()
		s, err := run(k)
		if err != nil {
			return summarizeResult{}, err
		}
		got := s.CompressionRatio(g)
		cand := summarizeResult{s, time.Since(start), got}
		if best.s == nil || closerTo(ratio, got, best.achievedRatio) {
			best = cand
		}
		switch {
		case got > ratio*1.05:
			hi = k - 1
		case got < ratio*0.95:
			lo = k + 1
		default:
			return cand, nil
		}
		if lo > hi {
			break
		}
	}
	return best, nil
}

// closerTo reports whether a is closer to target than b.
func closerTo(target, a, b float64) bool {
	da, db := a-target, b-target
	if da < 0 {
		da = -da
	}
	if db < 0 {
		db = -db
	}
	return da < db
}

// QueryKind names a node-similarity query type.
type QueryKind string

// The three query types of §V-A.
const (
	QRWR QueryKind = "RWR"
	QHOP QueryKind = "HOP"
	QPHP QueryKind = "PHP"
)

// groundTruth computes the exact answers for a query set on g.
type groundTruth struct {
	rwr map[graph.NodeID][]float64
	hop map[graph.NodeID][]float64
	php map[graph.NodeID][]float64
}

func computeTruth(g *graph.Graph, qs []graph.NodeID, kinds []QueryKind, sc Scale) (*groundTruth, error) {
	t := &groundTruth{
		rwr: map[graph.NodeID][]float64{},
		hop: map[graph.NodeID][]float64{},
		php: map[graph.NodeID][]float64{},
	}
	sess := queries.NewSession(queries.GraphOracle{G: g})
	for _, k := range kinds {
		for _, q := range qs {
			switch k {
			case QRWR:
				v, err := sess.RWR(q, sc.RWR)
				if err != nil {
					return nil, err
				}
				t.rwr[q] = v
			case QHOP:
				d, err := queries.GraphHOP(g, q)
				if err != nil {
					return nil, err
				}
				t.hop[q] = queries.ToFloats(queries.FillUnreached(d, int32(g.NumNodes())))
			case QPHP:
				v, err := sess.PHP(q, sc.PHP)
				if err != nil {
					return nil, err
				}
				t.php[q] = v
			}
		}
	}
	return t, nil
}

// accuracy answers the query set on the summary and averages SMAPE and
// Spearman against the ground truth. sess is s's query session
// (queries.NewSummarySession), made once per summary by the caller.
func accuracy(s *summary.Summary, sess queries.Session, truth *groundTruth, qs []graph.NodeID, kind QueryKind, sc Scale) (smape, spear float64, err error) {
	var sm, sp float64
	for _, q := range qs {
		var approx, exact []float64
		switch kind {
		case QRWR:
			approx, err = sess.RWR(q, sc.RWR)
			exact = truth.rwr[q]
		case QHOP:
			var d []int32
			d, err = queries.SummaryHOP(s, q)
			if err == nil {
				approx = queries.ToFloats(queries.FillUnreached(d, int32(s.NumNodes())))
			}
			exact = truth.hop[q]
		case QPHP:
			approx, err = sess.PHP(q, sc.PHP)
			exact = truth.php[q]
		}
		if err != nil {
			return 0, 0, err
		}
		a, err2 := metrics.SMAPE(exact, approx)
		if err2 != nil {
			return 0, 0, err2
		}
		b, err2 := metrics.Spearman(exact, approx)
		if err2 != nil {
			return 0, 0, err2
		}
		sm += a
		sp += b
	}
	n := float64(len(qs))
	return sm / n, sp / n, nil
}
