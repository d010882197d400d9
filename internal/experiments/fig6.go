package experiments

import (
	"fmt"
	"sort"
	"strings"

	"gpuhms/internal/baseline"
	"gpuhms/internal/core"
	"gpuhms/internal/trace"
)

// Fig6Row is one neuralnet placement with its measured time and the two
// models' scores and ranks.
type Fig6Row struct {
	Label        string
	Placement    string
	MeasuredNS   float64
	OursNS       float64
	PORPLEScore  float64
	MeasuredRank int
	OursRank     int
	PORPLERank   int
}

// Fig6Report reproduces the PORPLE ranking comparison on the neuralnet
// kernelFeedForward1's five data placements.
type Fig6Report struct {
	Rows []Fig6Row
}

// RankAccuracy reports whether a model's ranking matches the measured
// ranking exactly, and Spearman's footrule distance otherwise.
func (r *Fig6Report) RankAccuracy(rank func(Fig6Row) int) (exact bool, footrule int) {
	exact = true
	for _, row := range r.Rows {
		d := rank(row) - row.MeasuredRank
		if d < 0 {
			d = -d
		}
		footrule += d
		if d != 0 {
			exact = false
		}
	}
	return exact, footrule
}

// Fig6 ranks the five neuralnet placements by measured time, by the full
// model's prediction, and by the PORPLE-style score.
func (c *Context) Fig6() (*Fig6Report, error) {
	const kernel = "neuralnet"
	cases, err := c.Cases([]string{kernel}, true)
	if err != nil {
		return nil, err
	}
	t, sample := cases[0].Trace, cases[0].Sample

	model, err := c.Model(baseline.Ours())
	if err != nil {
		return nil, err
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
	porple := &baseline.PORPLE{Cfg: c.Cfg}
	st := trace.ComputeStats(t)

	rep := &Fig6Report{}
	for _, cs := range cases {
		pl := cs.Target
		m, err := c.Measure(kernel, sample, pl)
		if err != nil {
			return nil, err
		}
		pred, err := pr.Predict(pl)
		if err != nil {
			return nil, err
		}
		lbl := cs.Label
		if cs.IsSample {
			lbl = "NN_sample"
		}
		rep.Rows = append(rep.Rows, Fig6Row{
			Label:       lbl,
			Placement:   pl.Format(t),
			MeasuredNS:  m.TimeNS,
			OursNS:      pred.TimeNS,
			PORPLEScore: porple.Score(t, st, pl),
		})
	}
	assignRanks(rep.Rows, func(r Fig6Row) float64 { return r.MeasuredNS },
		func(r *Fig6Row, k int) { r.MeasuredRank = k })
	assignRanks(rep.Rows, func(r Fig6Row) float64 { return r.OursNS },
		func(r *Fig6Row, k int) { r.OursRank = k })
	assignRanks(rep.Rows, func(r Fig6Row) float64 { return r.PORPLEScore },
		func(r *Fig6Row, k int) { r.PORPLERank = k })
	return rep, nil
}

func assignRanks(rows []Fig6Row, key func(Fig6Row) float64, set func(*Fig6Row, int)) {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return key(rows[idx[a]]) < key(rows[idx[b]]) })
	for rank, i := range idx {
		set(&rows[i], rank+1)
	}
}

// Render prints the ranking duel.
func (r *Fig6Report) Render() string {
	var b strings.Builder
	b.WriteString("Fig 6: placement ranking for neuralnet kernelFeedForward1 — ours vs PORPLE\n")
	fmt.Fprintf(&b, "%-12s %-32s %12s %5s %12s %5s %14s %5s\n",
		"case", "placement", "measured(ns)", "rank", "ours(ns)", "rank", "porple(score)", "rank")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-32s %12.0f %5d %12.0f %5d %14.0f %5d\n",
			row.Label, row.Placement, row.MeasuredNS, row.MeasuredRank,
			row.OursNS, row.OursRank, row.PORPLEScore, row.PORPLERank)
	}
	oursExact, oursFoot := r.RankAccuracy(func(x Fig6Row) int { return x.OursRank })
	porpleExact, porpleFoot := r.RankAccuracy(func(x Fig6Row) int { return x.PORPLERank })
	fmt.Fprintf(&b, "our model ranking exact: %v (footrule %d); PORPLE ranking exact: %v (footrule %d)\n",
		oursExact, oursFoot, porpleExact, porpleFoot)
	return b.String()
}
