// Package gpuhms predicts GPU kernel performance under different data
// placements on a heterogeneous memory system (global, shared, constant,
// and texture memories), reproducing Huang & Li, "Performance Modeling for
// Optimal Data Placement on GPU with Heterogeneous Memory Systems"
// (IEEE CLUSTER 2017).
//
// The package is a facade over the implementation packages:
//
//   - describe a kernel as a placement-neutral trace (NewTraceBuilder) or
//     use one of the bundled SHOC/SDK-style workloads (Kernels, Kernel);
//   - measure any placement on the modeled Tesla K80 (NewSimulator) — the
//     stand-in for real hardware;
//   - predict placements from one profiled sample (NewAdvisor / Advisor),
//     which wraps the paper's full model: issued-instruction estimation
//     with replays and addressing modes, G/G/1 DRAM queuing with
//     row-buffer-aware service times, and the trained overlap model.
//
// Architectures resolve through a named registry (LookupArch, ArchNames):
// the paper's Tesla K80 ("k80"), a Fermi C2050 ("fermi"), an HBM-class
// wide-bus profile ("hbm"), and a two-die chiplet profile ("chiplet") whose
// off-chip spaces split into local and remote variants across an interposer
// (docs/ARCHES.md).
//
// A minimal session:
//
//	adv, _ := gpuhms.NewAdvisorForArch("k80")
//	spec, _ := gpuhms.Kernel("matrixMul")
//	tr := spec.Trace(1)
//	sample, _ := spec.SamplePlacement(tr)
//	res, _ := adv.RankPlacements(context.Background(), tr, sample, gpuhms.RankOptions{})
//	fmt.Println(res.Ranked[0].Placement, res.Ranked[0].PredictedNS)
//
// RankPlacements is the single rank entry point: a context for
// cancellation, RankOptions for bounds (TopK, MaxCandidates, Parallelism)
// and the search strategy (Exhaustive, GreedyStrategy, Beam —
// docs/SEARCH.md), and a RankResult carrying the ranking plus its coverage.
package gpuhms

import (
	"io"

	"gpuhms/internal/advisor"
	"gpuhms/internal/core"
	"gpuhms/internal/dram"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/kernels"
	"gpuhms/internal/microbench"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
	"gpuhms/internal/service"
	"gpuhms/internal/sim"
	"gpuhms/internal/trace"
)

// Observability. A Collector threaded through the Advisor (or a Simulator)
// captures structured run telemetry: a metrics registry (Prometheus text /
// JSON), span timelines (Chrome trace_event JSON for chrome://tracing and
// Perfetto, or CSV), and live search progress. See docs/OBSERVABILITY.md.
type (
	// Recorder is the instrumentation sink; NopRecorder() disables
	// recording at zero cost.
	Recorder = obs.Recorder
	// Collector is the live Recorder with export helpers.
	Collector = obs.Collector
	// SearchProgress reports a search's coverage of the candidate space
	// and its best result so far.
	SearchProgress = obs.Progress
	// MetricsSnapshot is a stable copy of collected metrics.
	MetricsSnapshot = obs.Snapshot
)

// NewCollector returns a live Collector on the wall clock.
func NewCollector() *Collector { return obs.NewCollector() }

// NopRecorder returns the shared no-op Recorder (the default when
// Advisor.Recorder is nil).
func NopRecorder() Recorder { return obs.Nop() }

// Structured errors. Every error returned across this API wraps exactly one
// of these sentinels (branch with errors.Is); see docs/ROBUSTNESS.md for the
// taxonomy.
var (
	// ErrIllegalPlacement: a placement breaks legality rules (capacity,
	// read-only spaces, 2D shapes, out-of-range array IDs) or fails to parse.
	ErrIllegalPlacement = hmserr.ErrIllegalPlacement
	// ErrInvalidTrace: a kernel trace is internally inconsistent.
	ErrInvalidTrace = hmserr.ErrInvalidTrace
	// ErrInvalidProfile: a sample profile carries non-finite, negative, or
	// inconsistent counters and cannot seed predictions.
	ErrInvalidProfile = hmserr.ErrInvalidProfile
	// ErrBudgetExceeded: a search ran out of budget; any accompanying
	// results are explicitly partial.
	ErrBudgetExceeded = hmserr.ErrBudgetExceeded
	// ErrArchMismatch: a saved model targets a different architecture.
	ErrArchMismatch = hmserr.ErrArchMismatch
	// ErrUnknownStrategy: a search-strategy spec names no known strategy
	// (see ParseStrategy).
	ErrUnknownStrategy = hmserr.ErrUnknownStrategy
	// ErrUnknownKernel: a name matches no bundled workload (see Kernel).
	ErrUnknownKernel = hmserr.ErrUnknownKernel
)

// Config describes the modeled GPU architecture.
type Config = gpu.Config

// ErrUnknownArch is wrapped by LookupArch for names the registry does not
// know; the message always lists the available canonical names.
var ErrUnknownArch = gpu.ErrUnknownArch

// LookupArch resolves an architecture name or alias through the registry
// and builds a fresh, validated *Config. This is the production path to a
// Config: "k80", "fermi", "hbm", "chiplet", and their aliases ("p100",
// "mcm", "tesla-k80", …) all resolve here. Unknown names return an error
// wrapping ErrUnknownArch.
func LookupArch(name string) (*Config, error) { return gpu.Lookup(name) }

// MustLookupArch is LookupArch for registered builtins in examples and
// tests; it panics on error.
func MustLookupArch(name string) *Config { return gpu.MustLookup(name) }

// ArchNames returns the sorted canonical names of every registered
// architecture.
func ArchNames() []string { return gpu.Names() }

// NewAdvisorForArch trains an advisor for a registry architecture, resolved
// by any registered name or alias: NewAdvisor(LookupArch(name)) in one call.
func NewAdvisorForArch(name string) (*Advisor, error) {
	cfg, err := gpu.Lookup(name)
	if err != nil {
		return nil, err
	}
	return advisor.New(cfg)
}

// MemSpace identifies one programmable memory component of the HMS.
type MemSpace = gpu.MemSpace

// Memory spaces. The *Remote variants exist only on chiplet architectures
// (Config.HasRemote): the same physical kind of memory reached across an
// interposer on the other die, with its own capacity pool and a per-request
// crossing latency (docs/ARCHES.md).
const (
	Global    = gpu.Global
	Shared    = gpu.Shared
	Constant  = gpu.Constant
	Texture1D = gpu.Texture1D
	Texture2D = gpu.Texture2D

	GlobalRemote    = gpu.GlobalRemote
	ConstantRemote  = gpu.ConstantRemote
	Texture1DRemote = gpu.Texture1DRemote
	Texture2DRemote = gpu.Texture2DRemote
)

// ParseSpace converts a space name ("G", "2T", "shared", …).
func ParseSpace(name string) (MemSpace, error) { return gpu.ParseSpace(name) }

// Trace is a placement-neutral kernel execution record.
type Trace = trace.Trace

// Array declares one kernel data object.
type Array = trace.Array

// TraceBuilder incrementally constructs kernel traces.
type TraceBuilder = trace.Builder

// Launch is a kernel launch configuration.
type Launch = trace.Launch

// NewTraceBuilder starts a trace for a custom kernel.
func NewTraceBuilder(kernel string, launch Launch) *TraceBuilder {
	return trace.NewBuilder(kernel, launch)
}

// Element types for Array declarations.
const (
	F32 = trace.F32
	F64 = trace.F64
	I32 = trace.I32
)

// Placement assigns each array of a trace to a memory space.
type Placement = placement.Placement

// ParsePlacement reads a "name:space,…" placement spec against a trace.
func ParsePlacement(t *Trace, spec string) (*Placement, error) {
	return placement.Parse(t, spec)
}

// CheckPlacement verifies a placement's legality (capacities, read-only
// constraints, 2D texture shapes).
func CheckPlacement(t *Trace, p *Placement, cfg *Config) error {
	return placement.Check(t, p, cfg)
}

// EnumeratePlacements yields the legal m^n placement space of a trace.
func EnumeratePlacements(t *Trace, cfg *Config) []*Placement {
	return placement.Enumerate(t, cfg)
}

// EnumeratePlacementsSeq streams the legal placement space without
// materializing it; the yielded placement is scratch — Clone to keep it.
// Returning false stops the enumeration.
func EnumeratePlacementsSeq(t *Trace, cfg *Config, yield func(*Placement) bool) {
	placement.EnumerateSeq(t, cfg, yield)
}

// PlacementSpace is an indexed view of a trace's raw m^n placement space and
// its one walker: At decodes any raw index to its placement, IndexOf encodes
// one back, Count sizes the legal space under a context, and GrayWalk
// streams the legal placements of one range of the reflected order — the
// walk each exhaustive ranking worker takes (see RankOptions.Parallelism).
type PlacementSpace = placement.Space

// NewPlacementSpace builds the indexed placement space of a trace.
func NewPlacementSpace(t *Trace, cfg *Config) *PlacementSpace {
	return placement.NewSpace(t, cfg)
}

// KernelSpec is one bundled benchmark workload.
type KernelSpec = kernels.Spec

// Kernels lists the bundled workload names.
func Kernels() []string { return kernels.Names() }

// Kernel looks up a bundled workload; unknown names wrap ErrUnknownKernel.
func Kernel(name string) (KernelSpec, error) {
	s, ok := kernels.Get(name)
	if !ok {
		return KernelSpec{}, hmserr.Wrap(hmserr.ErrUnknownKernel, "%s", name)
	}
	return s, nil
}

// Simulator is the ground-truth timing simulator (the modeled hardware).
type Simulator = sim.Simulator

// Measurement is a simulator result.
type Measurement = sim.Measurement

// Measurer measures placements: the Simulator, or a wrapper around one
// (e.g. the fault-injection harness in internal/faults).
type Measurer = sim.Measurer

// NewSimulator builds a simulator for the architecture.
func NewSimulator(cfg *Config) *Simulator { return sim.New(cfg) }

// Model is the paper's performance model; Prediction its output. A
// Prediction is read-only: on architectures with remote spaces its
// Analysis shares its DRAM stream slices with the predictions of the same
// placement's remote variants.
type (
	Model      = core.Model
	Prediction = core.Prediction
	Predictor  = core.Predictor
)

// ModelOptions selects model mechanisms (ablation switches).
type ModelOptions = core.Options

// SampleProfile carries the profiled sample placement (time + events).
type SampleProfile = core.SampleProfile

// NewModel builds a model with explicit options (FullModelOptions for the
// complete model; coefficients must be supplied or trained).
func NewModel(cfg *Config, opts ModelOptions) *Model { return core.NewModel(cfg, opts) }

// FullModelOptions returns the complete model configuration.
func FullModelOptions() ModelOptions { return core.FullOptions() }

// NewPredictor prepares target-placement predictions for one kernel from
// its profiled sample placement.
func NewPredictor(m *Model, t *Trace, sample *Placement, prof SampleProfile) (*Predictor, error) {
	return core.NewPredictor(m, t, sample, prof)
}

// Advisor is the high-level placement advisor: a full model whose overlap
// coefficients were trained on the bundled training placements, plus the
// measurer used to profile sample placements. It is implemented in
// internal/advisor (shared with the advisory service, internal/service) and
// re-exported here unchanged; an Advisor is safe for concurrent use once
// constructed.
type Advisor = advisor.Advisor

// Ranked is one candidate placement with its predicted time.
type Ranked = advisor.Ranked

// RankOptions bounds Advisor.RankPlacements' search over the m^n placement
// space: TopK keeps only the K fastest predictions (O(K) memory on any
// space); MaxCandidates stops the search after that many predictions and
// returns the partial ranking together with an error wrapping
// ErrBudgetExceeded (a *hmserr.BudgetError carrying the Evaluated/Total
// coverage); Parallelism fans the candidate evaluations out over that many
// workers, with a ranking guaranteed identical to the sequential one (ties
// broken by enumeration index — docs/PERFORMANCE.md); Strategy selects the
// search strategy (nil = Exhaustive — docs/SEARCH.md).
type RankOptions = advisor.RankOptions

// RankResult is RankPlacements' outcome: the ranking plus the effective
// strategy and its Evaluated/Total/Pruned coverage of the legal space.
type RankResult = advisor.RankResult

// Strategy selects how RankPlacements explores the legal placement space;
// see docs/SEARCH.md. Every strategy returns the same deterministic
// (predicted, index)-ordered ranking shape for any worker count.
type Strategy = advisor.Strategy

// Exhaustive enumerates every legal placement (the default strategy).
func Exhaustive() Strategy { return advisor.Exhaustive() }

// GreedyStrategy is per-array coordinate descent from the sample placement:
// it evaluates single-array moves and keeps strictly improving until no
// move helps. Fast, but only its best row is meaningful beyond the visited
// subset.
func GreedyStrategy() Strategy { return advisor.Greedy() }

// Beam keeps the width best partial placements per array position, pruning
// branches whose model-derived lower bound already exceeds the current
// top-K (width <= 0 uses the default width 4).
func Beam(width int) Strategy { return advisor.Beam(width) }

// ParseStrategy reads a strategy spec: "exhaustive" (or ""), "greedy",
// "beam" or "beam-W". Unknown specs return an error wrapping
// ErrUnknownStrategy.
func ParseStrategy(spec string) (Strategy, error) { return advisor.ParseStrategy(spec) }

// NewAdvisor trains the full model on the bundled Table IV training
// placements and returns a ready-to-use advisor.
func NewAdvisor(cfg *Config) (*Advisor, error) { return advisor.New(cfg) }

// NewAdvisorFromSaved reconstructs an advisor from a previously saved
// model, skipping the training runs. The saved architecture must match.
func NewAdvisorFromSaved(cfg *Config, r io.Reader) (*Advisor, error) {
	return advisor.NewFromSaved(cfg, r)
}

// Advisory service wire types. The placement-advisory HTTP server
// (cmd/hmsserved, internal/service) and `hmsplace -json` speak exactly
// these JSON shapes, re-exported so clients of the library can decode
// server responses without a second type definition. See docs/SERVICE.md.
type (
	// RankRequest is the body of POST /v1/rank.
	RankRequest = service.RankRequest
	// RankResponse is the rank endpoint's (and `hmsplace -json`'s) reply.
	RankResponse = service.RankResponse
	// RankedPlacement is one row of a RankResponse.
	RankedPlacement = service.RankedPlacement
	// Coverage reports a partial or sub-exhaustive search's
	// evaluated/total candidates, effective strategy, and pruned count.
	Coverage = service.Coverage
	// PredictRequest is the body of POST /v1/predict.
	PredictRequest = service.PredictRequest
	// PredictResponse is the predict endpoint's reply.
	PredictResponse = service.PredictResponse
	// KernelInfo is one workload in GET /v1/kernels.
	KernelInfo = service.KernelInfo
	// KernelsResponse is the kernels endpoint's reply.
	KernelsResponse = service.KernelsResponse
	// ArchInfo is one architecture in GET /v1/arches.
	ArchInfo = service.ArchInfo
	// ArchesResponse is the arches endpoint's reply.
	ArchesResponse = service.ArchesResponse
	// SpaceCapacity is one row of an ArchInfo capacity table.
	SpaceCapacity = service.SpaceCapacity
	// CompareRequest is the body of POST /v1/compare.
	CompareRequest = service.CompareRequest
	// CompareResponse is the compare endpoint's reply.
	CompareResponse = service.CompareResponse
	// CompareArchResult is one architecture's ranking in a CompareResponse.
	CompareArchResult = service.CompareArchResult
	// ErrorResponse is the JSON body of every non-2xx service reply.
	ErrorResponse = service.ErrorResponse
)

// AddressMappingReport is the outcome of the Algorithm 1 probe.
type AddressMappingReport = microbench.Result

// DetectAddressMapping runs the paper's Algorithm 1 against the modeled
// DRAM: one-bit-apart probe pairs classify each address bit as column, row,
// or bank, and measure the row-buffer hit/miss/conflict latencies.
func DetectAddressMapping(cfg *Config) *AddressMappingReport {
	m := dram.DefaultMapping(cfg.DRAM)
	return microbench.Detect(cfg.DRAM, m, 0, m.RowLo+m.RowBits)
}
