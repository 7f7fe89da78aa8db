package experiments

import "pegasus/internal/core"

// Fig11 reproduces Fig. 11: the effect of the adaptive-thresholding
// parameter β on query accuracy at ratios 0.3 and 0.5, averaged over
// datasets. β ≈ 0 selects the largest rejected reduction (slowest threshold
// decay); the paper finds moderate β (≈0.1) best, with little sensitivity
// unless β is extreme.
func Fig11(sc Scale) (*Table, error) {
	return sweep(sc, "Fig. 11 — effect of beta (averaged over datasets)", "Beta", 19,
		func(cfg *core.Config, beta float64) { cfg.Beta = beta },
		[]float64{1e-9, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9})
}
