// Package obs is the instrumentation layer of the reproduction: structured
// run tracing, a metrics registry, and span timelines, threaded through the
// simulator (internal/sim), the analytical model (internal/core), and the
// placement search (internal/placement, the gpuhms facade).
//
// The paper's whole methodology is observability of a GPU run — nvprof
// counters and SASSI traces feeding analytical models. This package gives
// the reproduction the same first-class telemetry: where simulated cycles
// go, how a search progresses, and why a prediction diverged from the
// simulator.
//
// The design splits into three pieces:
//
//   - Recorder: the interface instrumented code talks to. The no-op
//     recorder (Nop) costs a predicted branch and zero allocations, so
//     instrumentation can stay compiled into hot paths.
//   - Registry: named counters, gauges, and fixed-bucket histograms that
//     snapshot to a stable struct and render as Prometheus text or JSON.
//   - Timeline: completed spans and instants on named tracks, exportable
//     as Chrome trace_event JSON (chrome://tracing, Perfetto) or CSV.
//
// Collector implements Recorder over a Registry plus a Timeline and is what
// callers hand to the Simulator, Predictor, and Advisor. Everything here is
// dependency-free (standard library only) and safe for concurrent use.
//
// Metric naming convention: snake_case `<subsystem>_<quantity>_<unit>`,
// with a `_total` suffix for monotonic counters — e.g. `sim_issue_slots_total`,
// `model_tcomp_cycles`, `advisor_best_ns`. See docs/OBSERVABILITY.md.
package obs

// Recorder is the sink instrumented code reports into. Implementations must
// be safe for concurrent use. Hot paths guard recording with Enabled(), so
// the disabled path is a single predictable branch:
//
//	if rec.Enabled() {
//		rec.Add("sim_steps_total", steps)
//	}
type Recorder interface {
	// Enabled reports whether recording has any effect. Callers may hoist
	// the answer out of loops; it must not change over a Recorder's life.
	Enabled() bool

	// Now returns nanoseconds since the recorder started — the wall-clock
	// timebase for spans recorded by the model and search layers. (The
	// simulator records in simulated nanoseconds instead; the two live on
	// separate tracks.) The no-op recorder returns 0.
	Now() float64

	// Add increments the named monotonic counter.
	Add(name string, delta int64)

	// Gauge sets the named gauge to its latest value.
	Gauge(name string, v float64)

	// Observe records one sample into the named histogram.
	Observe(name string, v float64)

	// Span records a completed span [startNS, startNS+durNS) on a track.
	Span(track, name string, startNS, durNS float64)

	// Instant records an instantaneous event on a track.
	Instant(track, name string, tsNS float64)

	// ReportProgress publishes search progress (best-so-far, budget
	// consumption). The latest value is kept and surfaced in snapshots.
	ReportProgress(p Progress)
}

// Progress is a search's progress report: how much of the candidate space
// has been covered and the best result so far. It is what survives a
// budget-limited search (ErrBudgetExceeded) instead of being lost.
type Progress struct {
	// Evaluated is the number of candidate placements actually predicted.
	Evaluated int `json:"evaluated"`
	// Total is the number of legal candidates in the enumerated space;
	// 0 while still unknown (streaming enumeration).
	Total int `json:"total,omitempty"`
	// BestNS is the best (lowest) predicted time seen so far, ns.
	BestNS float64 `json:"best_ns,omitempty"`
	// Best names the best placement seen so far (Placement.Format).
	Best string `json:"best,omitempty"`
	// Strategy names the search strategy producing this report ("exhaustive",
	// "greedy", "beam-4"); empty for searches predating strategy selection.
	Strategy string `json:"strategy,omitempty"`
	// Pruned counts candidate placements a bounded search skipped because an
	// admissible lower bound proved they could not enter the current top-K.
	// Always 0 for exhaustive searches.
	Pruned int `json:"pruned,omitempty"`
	// Done marks the final report of a search (complete or stopped).
	Done bool `json:"done,omitempty"`
}

// nop is the disabled recorder: every method is an empty body the compiler
// can see through, and the value carries no state, so instrumented code
// pays no allocation and no synchronization.
type nop struct{}

func (nop) Enabled() bool                         { return false }
func (nop) Now() float64                          { return 0 }
func (nop) Add(string, int64)                     {}
func (nop) Gauge(string, float64)                 {}
func (nop) Observe(string, float64)               {}
func (nop) Span(string, string, float64, float64) {}
func (nop) Instant(string, string, float64)       {}
func (nop) ReportProgress(Progress)               {}

// Nop returns the shared no-op Recorder. It is the default everywhere a
// recorder is optional: nil recorder fields normalize to Nop().
func Nop() Recorder { return nopRecorder }

var nopRecorder Recorder = nop{}

// OrNop normalizes an optional recorder: nil becomes Nop().
func OrNop(r Recorder) Recorder {
	if r == nil {
		return nopRecorder
	}
	return r
}

// MetricsOnly returns a view of r that forwards counters, gauges, histograms
// and progress and drops spans and instants. A long-lived server hands it to
// the layers under a request (simulator, model, advisor), so their metrics
// reach /metrics while its bounded timeline keeps room for the sampled
// request spans it exists for.
func MetricsOnly(r Recorder) Recorder { return metricsOnly{OrNop(r)} }

type metricsOnly struct{ Recorder }

func (metricsOnly) Span(string, string, float64, float64) {}
func (metricsOnly) Instant(string, string, float64)       {}
