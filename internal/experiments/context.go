// Package experiments reproduces every table and figure of the paper's
// evaluation (§II-B Table I, §III Fig 2/Algorithm 1/Fig 4, §V Figs 5–9,
// Table IV). Each experiment is a function on a Context that returns a
// structured report with a Render method printing the same rows/series the
// paper reports.
package experiments

import (
	"sort"
	"sync"

	"gpuhms/internal/baseline"
	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/train"
)

// Context is a training session (memoized traces and measurements, shared by
// every figure and by Eq 11 training) plus the trained coefficients of each
// model variant.
type Context struct {
	*train.Session
	coeffs sync.Map // variant name → trained Eq 11 coefficients
}

// NewContext builds an experiment context at the given workload scale
// (1 = the scale used throughout the paper reproduction).
func NewContext(cfg *gpu.Config, scale int) *Context {
	return &Context{Session: train.New(cfg, scale)}
}

// Model builds a trained model for a variant: variants using the Eq 11
// overlap are fit (once, memoized per variant name) on the Table IV training
// placements.
func (c *Context) Model(v baseline.Variant) (*core.Model, error) {
	opts := v.Opts
	if v.NeedsTraining {
		coeffs, ok := c.coeffs.Load(v.Name)
		if !ok {
			fit, err := c.Overlap(v.Opts)
			if err != nil {
				return nil, err
			}
			coeffs, _ = c.coeffs.LoadOrStore(v.Name, fit)
		}
		opts.OverlapCoeffs = coeffs.([]float64)
	}
	return core.NewModel(c.Cfg, opts), nil
}

// EvalKernels returns the evaluation kernel names (Table IV top half),
// sorted. Micro-suite kernels (demonstrations) and extension-corpus kernels
// (beyond the paper's roster) are excluded so the reproduced figures match
// the paper's benchmark set.
func EvalKernels() []string {
	var names []string
	for _, n := range kernels.EvalNames() {
		switch kernels.MustGet(n).Suite {
		case "micro", "ext":
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
