// Package advisor implements the high-level placement advisor: a trained
// full model (Eq 1–12) plus the measurer used to profile sample placements,
// with cancellable, budgeted searches over the legal placement space.
//
// It used to live in the gpuhms facade; it is an internal package so that
// other internal layers — the advisory service (internal/service), the CLIs —
// can share one implementation without importing the public facade. The
// facade re-exports every type here as an alias, so the public API is
// unchanged.
package advisor

import (
	"context"
	"fmt"
	"io"

	"gpuhms/internal/baseline"
	"gpuhms/internal/core"
	"gpuhms/internal/experiments"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
	"gpuhms/internal/sim"
	"gpuhms/internal/trace"
)

// checkConfig validates an architecture before internals (which assume a
// screened Config) run on it.
func checkConfig(cfg *gpu.Config) error {
	if cfg == nil {
		return fmt.Errorf("gpuhms: nil Config")
	}
	return cfg.Validate()
}

// Advisor is the high-level placement advisor: a full model whose overlap
// coefficients were trained on the bundled training placements, plus the
// measurer used to profile sample placements.
//
// An Advisor is safe for concurrent use once constructed, provided its
// fields are not mutated afterwards and any substituted Measurer is itself
// concurrency-safe: every search builds its own predictor and (with a nil
// Measurer) its own simulator, and the trained model is read-only.
type Advisor struct {
	Cfg   *gpu.Config
	Model *core.Model

	// Measurer profiles sample placements and serves MeasureOn; nil uses a
	// fresh ground-truth simulator. Substituting a fault-injecting wrapper
	// (internal/faults) here exercises the advisor under degraded counters.
	Measurer sim.Measurer

	// Recorder receives the advisor's telemetry: profiling-run simulator
	// events, per-prediction model term breakdowns, per-placement eval
	// spans, and search progress (including the Evaluated/Total record of
	// a budget-limited ranking). Nil disables recording. When Measurer is
	// nil, the recorder is also threaded into the fresh simulator.
	Recorder obs.Recorder
}

// rec normalizes the advisor's optional recorder.
func (a *Advisor) rec() obs.Recorder { return obs.OrNop(a.Recorder) }

// New trains the full model on the bundled Table IV training placements and
// returns a ready-to-use advisor.
func New(cfg *gpu.Config) (adv *Advisor, err error) {
	defer hmserr.Guard(&err)
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	ctx := experiments.NewContext(cfg, 1)
	m, err := ctx.Model(baseline.Ours())
	if err != nil {
		return nil, fmt.Errorf("gpuhms: training advisor: %w", err)
	}
	return &Advisor{Cfg: cfg, Model: m}, nil
}

// NewFromSaved reconstructs an advisor from a previously saved model,
// skipping the training runs. The saved architecture must match.
func NewFromSaved(cfg *gpu.Config, r io.Reader) (*Advisor, error) {
	opts, err := core.LoadOptions(r, cfg.Name)
	if err != nil {
		return nil, err
	}
	return &Advisor{Cfg: cfg, Model: core.NewModel(cfg, opts)}, nil
}

// measurer returns the configured Measurer or a fresh simulator carrying
// the advisor's recorder.
func (a *Advisor) measurer() sim.Measurer {
	if a.Measurer != nil {
		return a.Measurer
	}
	s := sim.New(a.Cfg)
	s.Recorder = a.Recorder
	return s
}

// Ranked is one candidate placement with its predicted time. Index is the
// candidate's raw index in the enumeration of the placement space
// (placement.Space); equal predictions sort by it, which is what makes a
// ranking reproducible regardless of how many workers produced it. Every
// strategy assigns it — sub-exhaustive searches encode the candidates they
// construct back to their enumeration index (placement.Space.IndexOf), so
// rankings from different strategies order ties identically.
type Ranked struct {
	Placement   *placement.Placement
	PredictedNS float64
	Index       int64
}

// rankHeap is a max-heap on (predicted time, enumeration index): the root is
// the worst kept candidate — slowest, then highest index among equal
// predictions — evicted first when a better one arrives. Using the full
// total order here (not just the time) keeps the kept set identical across
// worker counts even when predictions tie at the top-K boundary.
type rankHeap []Ranked

func (h rankHeap) Len() int { return len(h) }
func (h rankHeap) Less(i, j int) bool {
	if h[i].PredictedNS != h[j].PredictedNS {
		return h[i].PredictedNS > h[j].PredictedNS
	}
	return h[i].Index > h[j].Index
}
func (h rankHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *rankHeap) Push(x any)   { *h = append(*h, x.(Ranked)) }
func (h *rankHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// RankOptions bounds RankPlacements' search over the m^n placement space.
type RankOptions struct {
	// TopK keeps only the K fastest predictions; 0 keeps the whole ranking.
	// With TopK set, memory stays O(K) no matter how large the legal
	// placement space is.
	TopK int
	// MaxCandidates stops the search after predicting this many placements
	// (0 = unlimited). When it triggers, the ranking seen so far is returned
	// together with a *hmserr.BudgetError (wrapping ErrBudgetExceeded) —
	// partial results are never silently reported as complete.
	MaxCandidates int
	// Parallelism is the number of workers evaluating candidates; values
	// below 2 run sequentially. Each worker predicts on its own clone of the
	// profiled model, and results are merged under the (PredictedNS, Index)
	// total order, so the ranking is identical for every worker count. Only
	// the subset covered by a MaxCandidates budget depends on it (see
	// Search).
	Parallelism int
	// Strategy selects how the search covers the space: nil or Exhaustive()
	// predicts every legal placement; Greedy() and Beam(w) visit a
	// model-guided subset and rank only what they visit (docs/SEARCH.md).
	Strategy Strategy
}

// RankPlacements profiles the sample placement, searches the legal placement
// space of the trace under opt, and returns the kept candidates
// fastest-first together with the search's coverage (strategy, evaluated,
// pruned, total). It is the advisor's one ranking entry point.
//
// A canceled context aborts the profiling run and the search promptly and
// returns ctx.Err(). The placement space is streamed, so only the kept
// candidates are ever resident. With opt.Parallelism > 1 evaluations fan out
// over that many workers, each predicting on its own clone of the profiled
// model; the result is identical to the sequential search for every worker
// count (see Search, the engine behind this method).
//
// With Advisor.Recorder set, each evaluation is recorded as a span, the
// best-so-far prediction as a gauge, and progress reports (including the
// strategy and pruned-candidate count) flow throughout. When the
// MaxCandidates budget stops the search, the partial result is returned with
// a *hmserr.BudgetError, and the final progress report carries Evaluated
// versus Total, so a partial ranking's coverage survives in the obs snapshot
// instead of being lost with the error.
func (a *Advisor) RankPlacements(ctx context.Context, t *trace.Trace, sample *placement.Placement, opt RankOptions) (res *RankResult, err error) {
	defer hmserr.Guard(&err)
	if err := checkConfig(a.Cfg); err != nil {
		return nil, err
	}
	pr, err := a.PredictorContext(ctx, t, sample)
	if err != nil {
		return nil, err
	}
	return Search(ctx, a.Cfg, t, pr, opt, a.rec())
}

// Predictor profiles the sample placement and returns a predictor for
// arbitrary target placements of the trace.
func (a *Advisor) Predictor(t *trace.Trace, sample *placement.Placement) (*core.Predictor, error) {
	return a.PredictorContext(context.Background(), t, sample)
}

// PredictorContext is Predictor with cancellation of the profiling run.
func (a *Advisor) PredictorContext(ctx context.Context, t *trace.Trace, sample *placement.Placement) (pr *core.Predictor, err error) {
	defer hmserr.Guard(&err)
	if err := checkConfig(a.Cfg); err != nil {
		return nil, err
	}
	if t == nil {
		return nil, hmserr.Wrap(hmserr.ErrInvalidTrace, "nil trace")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	rec := a.rec()
	var start float64
	if rec.Enabled() {
		start = rec.Now()
	}
	prof, err := a.measurer().RunContext(ctx, t, sample, sample)
	if err != nil {
		return nil, fmt.Errorf("gpuhms: profiling sample placement: %w", err)
	}
	if rec.Enabled() {
		rec.Span("advisor", "profile "+sample.Format(t), start, rec.Now()-start)
	}
	p, err := core.NewPredictor(a.Model, t, sample,
		core.SampleProfile{TimeNS: prof.TimeNS, Events: prof.Events})
	if err != nil {
		return nil, err
	}
	p.SetRecorder(a.Recorder)
	return p, nil
}

// MeasureOn runs a placement on the ground-truth simulator (the "hardware"
// measurement of the reproduction).
func (a *Advisor) MeasureOn(t *trace.Trace, sample, target *placement.Placement) (*sim.Measurement, error) {
	return a.MeasureOnContext(context.Background(), t, sample, target)
}

// MeasureOnContext is MeasureOn with cancellation of the simulator run.
func (a *Advisor) MeasureOnContext(ctx context.Context, t *trace.Trace, sample, target *placement.Placement) (m *sim.Measurement, err error) {
	defer hmserr.Guard(&err)
	return a.measurer().RunContext(ctx, t, sample, target)
}

// Save persists the advisor's trained model (options + Eq 11 coefficients)
// as JSON, tagged with the architecture name.
func (a *Advisor) Save(w io.Writer) error {
	return a.Model.Save(w, a.Cfg.Name)
}
