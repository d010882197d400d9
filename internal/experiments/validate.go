package experiments

import (
	"fmt"
	"sort"
	"strings"

	"gpuhms/internal/baseline"
	"gpuhms/internal/core"
	"gpuhms/internal/kernels"
	"gpuhms/internal/stats"
)

// ValidateRow summarizes model-vs-simulator agreement for one kernel across
// all of its data placement tests.
type ValidateRow struct {
	Kernel     string
	Suite      string
	Placements int
	MeanErrPct float64 // mean |pred−meas|/meas over placements
	MaxErrPct  float64
	RankExact  bool // does the predicted ordering match the measured one?
	BestAgree  bool // does the predicted best match the measured best?
}

// ValidateReport is the acceptance sweep: every registered kernel —
// Table IV roster, micro, and extension corpus — through the trained full
// model, with error and ranking agreement per kernel. This is the summary a
// release would gate on.
type ValidateReport struct {
	Rows []ValidateRow
	// Skipped lists the placement tests, as "kernel placement", that do not
	// fit the architecture and were left out of the sweep.
	Skipped []string
}

// Validate runs the sweep on the context's architecture.
func (c *Context) Validate() (*ValidateReport, error) {
	model, err := c.Model(baseline.Ours())
	if err != nil {
		return nil, err
	}
	warm, err := c.Cases(kernels.Names(), true)
	if err != nil {
		return nil, err
	}
	if err := c.Prewarm(warm); err != nil {
		return nil, err
	}
	rep := &ValidateReport{}
	for _, kernel := range kernels.Names() {
		k, err := c.Tests(kernel)
		if err != nil {
			return nil, err
		}
		t, sample, placements := k.Trace, k.Sample, k.Placements
		for _, pl := range k.Skipped {
			rep.Skipped = append(rep.Skipped, kernel+" "+pl.String())
		}

		prof, err := c.Measure(kernel, sample, sample)
		if err != nil {
			return nil, err
		}
		pr, err := core.NewPredictor(model, t, sample,
			core.SampleProfile{TimeNS: prof.TimeNS, Events: prof.Events})
		if err != nil {
			return nil, err
		}

		row := ValidateRow{Kernel: kernel, Suite: kernels.MustGet(kernel).Suite, Placements: len(placements)}
		type pair struct{ pred, meas float64 }
		pairs := make([]pair, 0, len(placements))
		for _, pl := range placements {
			p, err := pr.Predict(pl)
			if err != nil {
				return nil, err
			}
			m, err := c.Measure(kernel, sample, pl)
			if err != nil {
				return nil, err
			}
			e := 100 * stats.RelError(p.TimeNS, m.TimeNS)
			row.MeanErrPct += e
			if e > row.MaxErrPct {
				row.MaxErrPct = e
			}
			pairs = append(pairs, pair{p.TimeNS, m.TimeNS})
		}
		row.MeanErrPct /= float64(len(placements))

		byPred := rankOrder(pairs, func(p pair) float64 { return p.pred })
		byMeas := rankOrder(pairs, func(p pair) float64 { return p.meas })
		row.RankExact = equalInts(byPred, byMeas)
		row.BestAgree = byPred[0] == byMeas[0]
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func rankOrder[T any](xs []T, key func(T) float64) []int {
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return key(xs[order[a]]) < key(xs[order[b]]) })
	return order
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MeanError returns the grand mean error over all kernels.
func (r *ValidateReport) MeanError() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	s := 0.0
	for _, row := range r.Rows {
		s += row.MeanErrPct
	}
	return s / float64(len(r.Rows))
}

// BestAgreementRate returns the fraction of kernels whose predicted best
// placement is the measured best.
func (r *ValidateReport) BestAgreementRate() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	n := 0
	for _, row := range r.Rows {
		if row.BestAgree {
			n++
		}
	}
	return float64(n) / float64(len(r.Rows))
}

// Render prints the sweep.
func (r *ValidateReport) Render() string {
	var b strings.Builder
	b.WriteString("Validation sweep: full model vs simulator across the entire kernel corpus\n")
	fmt.Fprintf(&b, "%-14s %-6s %6s %10s %10s %10s %10s\n",
		"kernel", "suite", "cases", "mean err", "max err", "rank ok", "best ok")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %-6s %6d %9.1f%% %9.1f%% %10v %10v\n",
			row.Kernel, row.Suite, row.Placements, row.MeanErrPct, row.MaxErrPct,
			row.RankExact, row.BestAgree)
	}
	fmt.Fprintf(&b, "grand mean error %.1f%%; best-placement agreement %.0f%%\n",
		r.MeanError(), 100*r.BestAgreementRate())
	if len(r.Skipped) > 0 {
		fmt.Fprintf(&b, "skipped %d placement tests that do not fit the architecture: %s\n",
			len(r.Skipped), strings.Join(r.Skipped, "; "))
	}
	return b.String()
}
