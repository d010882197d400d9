package core

import (
	"fmt"
	"math"
	"sync"

	"gpuhms/internal/dram"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/memsys"
	"gpuhms/internal/obs"
	"gpuhms/internal/perf"
	"gpuhms/internal/placement"
	"gpuhms/internal/queuing"
	"gpuhms/internal/trace"
)

// Options selects the model variant. The zero value is the "baseline" of
// §V-B: no detailed instruction counting, constant DRAM latency, even
// request distribution, Eq 11 overlap.
type Options struct {
	// InstrCounting enables the detailed issued-instruction estimation of
	// §III-B: addressing-mode deltas and instruction-replay quantification
	// (Eq 3). When false, T_comp uses the sample placement's executed
	// instruction count for every placement, as in prior work [6][7].
	InstrCounting bool

	// Queuing enables the G/G/1 queuing model of §III-C for the DRAM access
	// latency. When false a constant off-chip latency (the row-miss latency
	// a microbenchmark would measure) is assumed, as in prior work.
	Queuing bool

	// AddressMapping distributes memory requests over banks using the
	// detected address mapping scheme; when false, requests are spread
	// evenly (the Fig 8 ablation).
	AddressMapping bool

	// Variant selects the queuing approximation (paper Eq 9 by default).
	Variant queuing.Variant

	// OverlapCoeffs are the trained Eq 11 coefficients (see Train). Nil
	// predicts zero overlap.
	OverlapCoeffs []float64

	// HongKimOverlap replaces the Eq 11 overlap model with the MWP/CWP
	// formulation of [6], used by the Sim-et-al baseline [7].
	HongKimOverlap bool
}

// FullOptions returns the paper's complete model (coefficients must still be
// trained).
func FullOptions() Options {
	return Options{InstrCounting: true, Queuing: true, AddressMapping: true}
}

// Model predicts kernel execution times under data placements.
type Model struct {
	Cfg  *gpu.Config
	Opts Options
}

// NewModel builds a model for the architecture; its DRAM analysis uses the
// address mapping derived from the topology (dram.DefaultMapping).
func NewModel(cfg *gpu.Config, opts Options) *Model {
	return &Model{Cfg: cfg, Opts: opts}
}

// SampleProfile is what profiling the sample placement provides: its
// measured execution time and hardware event counters (nvprof in the paper;
// the ground-truth simulator here).
type SampleProfile struct {
	TimeNS float64
	Events perf.Events
}

// Validate rejects profiles that cannot seed predictions — non-finite or
// non-positive sample times, and negative, non-finite, or inconsistent
// counters. Failures wrap hmserr.ErrInvalidProfile: a noisy profiler (or a
// fault injector) surfaces here as a typed error, never as NaN predictions.
func (p *SampleProfile) Validate() error {
	if math.IsNaN(p.TimeNS) || math.IsInf(p.TimeNS, 0) || p.TimeNS <= 0 {
		return hmserr.Wrap(hmserr.ErrInvalidProfile, "sample time %g ns", p.TimeNS)
	}
	if err := p.Events.Validate(); err != nil {
		return hmserr.Wrap(hmserr.ErrInvalidProfile, "%v", err)
	}
	return nil
}

// Prediction is one placement's predicted performance, with the Eq 1
// decomposition exposed for ablation studies. Its Analysis is read-only: its
// stream slices may be shared with other predictions (see Analysis).
type Prediction struct {
	TimeNS    float64
	Cycles    float64
	TComp     float64 // cycles
	TMem      float64 // cycles
	TOverlap  float64 // cycles
	StagingNS float64

	AMAT         float64 // cycles per memory instruction
	DRAMLatNS    float64 // average DRAM access latency (Eq 7)
	QueueDelayNS float64 // average queuing component of DRAMLatNS
	Events       perf.Events
	Analysis     *Analysis

	// FixedPointIters counts the bisection steps spent finding the
	// self-consistent execution span of the queuing model (0 when the
	// queuing model is off) — a convergence observable for the obs layer.
	FixedPointIters int
}

// Predictor holds the per-kernel state: the sample placement's layout, the
// model's own analysis of the sample, the sample profile, and the decomposed
// evaluator — the placement-independent program plus the shared contribution
// cache that makes repeated and delta evaluations cheap (delta.go).
//
// A Predictor is safe for concurrent use: the fields set at construction are
// read-only, the contribution cache is internally synchronized, and the
// reusable merge scratch is guarded by a mutex. For parallel ranking, prefer
// one Clone per worker — clones share the immutable state and the
// contribution cache but carry private merge scratch, so they never contend
// on the lock.
type Predictor struct {
	model        *Model
	trace        *trace.Trace
	sample       *placement.Placement
	sampleLayout *placement.Layout
	sampleAn     *Analysis
	sampleState  *DeltaState
	profile      SampleProfile
	rec          obs.Recorder

	prog  *program
	cache *contribCache

	// mu guards scr, the lazily-built reusable merge scratch (shared cache
	// hierarchy, per-SM caches, DRAM analyzer) that makes repeated
	// evaluations allocation-lean — one set per predictor instead of per
	// prediction.
	mu  sync.Mutex
	scr *mergeScratch
}

// Clone returns a predictor sharing this one's immutable state (model,
// trace, program, contribution cache, sample analysis, profile, recorder)
// but with private merge scratch — the per-worker handle of a parallel
// ranking. Clones produce bit-identical predictions to the original, and
// contributions built by one clone are visible to all.
func (p *Predictor) Clone() *Predictor {
	return &Predictor{
		model:        p.model,
		trace:        p.trace,
		sample:       p.sample,
		sampleLayout: p.sampleLayout,
		sampleAn:     p.sampleAn,
		sampleState:  p.sampleState,
		profile:      p.profile,
		rec:          p.rec,
		prog:         p.prog,
		cache:        p.cache,
	}
}

// SetRecorder attaches an instrumentation recorder: every Predict reports
// its Eq 1 term breakdown (T_comp/T_mem/T_overlap inputs and outputs) and a
// wall-clock span. A nil recorder disables recording.
func (p *Predictor) SetRecorder(rec obs.Recorder) { p.rec = obs.OrNop(rec) }

// NewPredictor analyzes the sample placement and prepares target
// predictions. The sample profile is validated first: non-finite, negative,
// or inconsistent profiles are rejected with hmserr.ErrInvalidProfile.
// Construction builds the placement-independent program, seeds the
// contribution cache with the sample's contributions, and retains the
// sample's DeltaState as the canonical root for delta evaluations.
func NewPredictor(m *Model, t *trace.Trace, sample *placement.Placement, prof SampleProfile) (*Predictor, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if err := placement.Check(t, sample, m.Cfg); err != nil {
		return nil, fmt.Errorf("core: sample placement: %w", err)
	}
	prog := newProgram(m.Cfg, t)
	p := &Predictor{
		model:        m,
		trace:        t,
		sample:       sample,
		sampleLayout: placement.NewLayout(t, sample),
		profile:      prof,
		prog:         prog,
		cache:        newContribCache(prog),
	}
	an, st, _ := p.evalState(sample, nil, true)
	p.sampleAn = an
	p.sampleState = st
	return p, nil
}

func (m *Model) distMode() dram.DistributionMode {
	if m.Opts.AddressMapping {
		return dram.Mapped
	}
	return dram.Even
}

// Sample returns the model's analysis of the sample placement.
func (p *Predictor) Sample() *Analysis { return p.sampleAn }

// SamplePlacement returns the profiled sample placement — the canonical
// starting point for local searches (greedy coordinate descent). Callers must
// not mutate it; Clone before modifying.
func (p *Predictor) SamplePlacement() *placement.Placement { return p.sample }

// Profile returns the sample profile the predictor was built from.
func (p *Predictor) Profile() SampleProfile { return p.profile }

// AnalyzePlacement runs the §IV trace analysis of one placement under this
// model's mapping and distribution mode. It runs the same decomposed
// evaluation as Predict, but standalone: the program, every contribution,
// every group sim and the merge are built fresh and nothing is cached.
func (m *Model) AnalyzePlacement(t *trace.Trace, sample, target *placement.Placement) *Analysis {
	prog := newProgram(m.Cfg, t)
	layout := placement.Retarget(t, placement.NewLayout(t, sample), sample, target)
	resolver := memsys.NewHierarchy(m.Cfg)
	contribs := make([]*contribution, len(t.Arrays))
	for i := range t.Arrays {
		sp := target.Spaces[i]
		contribs[i] = prog.buildContribution(resolver, trace.ArrayID(i), sp, addrKeyOf(layout, sp, i))
	}
	an, _ := prog.merge(target, contribs, newMergeScratch(m.Cfg, m.distMode()), nil)
	return an
}

// evalStats tallies how one evaluation was served, for telemetry.
type evalStats struct {
	hits, builds int64 // contribution cache hits and builds
	merge        mergePath
}

// evalState runs the decomposed evaluation of a target placement: resolve the
// layout, gather one contribution per array — reusing prev's where the
// array's local binding is unchanged, then the shared cache, then a fresh
// build — and merge them. On architectures with remote spaces, cached
// evaluations take the merge of target's local projection from the memo
// (contribCache.merged) and recount RemoteReqs on a shallow copy. With
// useCache false every contribution not taken from prev, every group sim and
// the merge are rebuilt from scratch: the full-evaluation fallback,
// identical math at cold-start cost.
func (p *Predictor) evalState(target *placement.Placement, prev *DeltaState, useCache bool) (*Analysis, *DeltaState, evalStats) {
	layout := placement.Retarget(p.trace, p.sampleLayout, p.sample, target)
	contribs := make([]*contribution, len(target.Spaces))
	var st evalStats
	for i := range contribs {
		sp := target.Spaces[i].Base()
		addr := addrKeyOf(layout, sp, i)
		// Fast path: an array whose local space and address binding are
		// unchanged keeps prev's contribution without even a cache lookup.
		// Retargeting can shift untouched arrays — a neighbor crossing the
		// on-chip/off-chip boundary moves shared offsets and heap ranges —
		// and those fall through to the cache.
		if prev != nil && prev.place.Spaces[i].Base() == sp && addrKeyOf(prev.layout, sp, i) == addr {
			contribs[i] = prev.contribs[i]
			continue
		}
		if !useCache {
			contribs[i] = p.prog.buildContribution(p.cache.resolver, trace.ArrayID(i), sp, addr)
			st.builds++
			continue
		}
		c, hit := p.cache.get(trace.ArrayID(i), sp, addr)
		contribs[i] = c
		if hit {
			st.hits++
		} else {
			st.builds++
		}
	}
	var an *Analysis
	switch {
	case !useCache:
		// PredictFull bypasses the group-sim cache and the merge memo too:
		// cache-distrusting evaluations rebuild every memoized input.
		an, st.merge = p.merge(target, contribs, nil)
	case p.cache.analyses == nil:
		// No remote spaces, no merge memo (see contribCache.analyses).
		an, st.merge = p.merge(target, contribs, &p.cache.groups)
	default:
		var local *Analysis
		local, st.merge = p.cache.merged(target, func() (*Analysis, mergePath) {
			return p.merge(target, contribs, &p.cache.groups)
		})
		cp := *local
		cp.RemoteReqs = remoteReqs(target, contribs)
		an = &cp
	}
	return an, &DeltaState{place: target.Clone(), layout: layout, contribs: contribs}, st
}

// merge runs the merge pass on the predictor's reusable scratch.
func (p *Predictor) merge(target *placement.Placement, contribs []*contribution, groups *groupCache) (*Analysis, mergePath) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.scr == nil {
		p.scr = newMergeScratch(p.model.Cfg, p.model.distMode())
	} else {
		p.scr.reset()
	}
	return p.prog.merge(target, contribs, p.scr, groups)
}

// recordPrediction emits the per-prediction telemetry shared by every
// evaluation entry point.
func (p *Predictor) recordPrediction(rec obs.Recorder, pred *Prediction, span string, st evalStats, startNS float64) {
	rec.Add("model_predictions_total", 1)
	rec.Add("model_fixedpoint_iters_total", int64(pred.FixedPointIters))
	if st.hits > 0 {
		rec.Add("model_contrib_cache_hits_total", st.hits)
	}
	if st.builds > 0 {
		rec.Add("model_contrib_builds_total", st.builds)
	}
	switch st.merge {
	case mergedFast:
		rec.Add("model_merge_fast_total", 1)
	case mergedExact:
		rec.Add("model_merge_exact_total", 1)
	case mergeReused:
		rec.Add("model_merge_reused_total", 1)
	}
	rec.Observe("model_tcomp_cycles", pred.TComp)
	rec.Observe("model_tmem_cycles", pred.TMem)
	rec.Observe("model_toverlap_cycles", pred.TOverlap)
	rec.Observe("model_amat_cycles", pred.AMAT)
	rec.Observe("model_dram_latency_ns", pred.DRAMLatNS)
	rec.Observe("model_queue_delay_ns", pred.QueueDelayNS)
	rec.Observe("model_predicted_ns", pred.TimeNS)
	rec.Span("model", span, startNS, rec.Now()-startNS)
}

// Predict returns the predicted performance of a target placement. It runs
// the decomposed evaluation with the caches on, so repeated predictions
// against one predictor pay only the merge pass for arrays whose bindings
// have been seen before, and, on architectures with remote spaces, not even
// that for a placement whose local projection was merged before.
func (p *Predictor) Predict(target *placement.Placement) (*Prediction, error) {
	pred, _, err := p.PredictState(target)
	return pred, err
}

// PredictState is Predict returning also the reusable DeltaState of the
// evaluated placement — the starting point for PredictDelta.
func (p *Predictor) PredictState(target *placement.Placement) (*Prediction, *DeltaState, error) {
	return p.predictVia(target, nil, true, "predict")
}

// PredictDelta predicts the placement obtained by moving one array of a
// previously evaluated placement to a new space, reusing every untouched
// per-array contribution from prev. The result is byte-identical to
// Predict of the same placement — delta and full evaluation share one code
// path and differ only in cache temperature — which the equivalence suite
// pins. A delta evaluation still validates placement legality, so capacity
// and read-only violations surface exactly as they do from Predict.
func (p *Predictor) PredictDelta(prev *DeltaState, arrayIdx int, newSpace gpu.MemSpace) (*Prediction, *DeltaState, error) {
	if prev == nil {
		return nil, nil, fmt.Errorf("core: PredictDelta: nil previous state")
	}
	target, err := prev.place.WithMoveChecked(trace.ArrayID(arrayIdx), newSpace)
	if err != nil {
		return nil, nil, err
	}
	return p.predictVia(target, prev, true, "predict_delta")
}

// PredictFull is Predict with every cache bypassed: each per-array
// contribution, group sim and the merge are rebuilt from scratch, and the
// merge memo is neither read nor written. It is the documented
// fallback when cached state cannot be trusted (and the honest baseline for
// delta-speedup benchmarks); the math is identical to Predict, only slower.
func (p *Predictor) PredictFull(target *placement.Placement) (*Prediction, error) {
	pred, _, err := p.predictVia(target, nil, false, "predict_full")
	return pred, err
}

// SampleState returns the DeltaState of the profiled sample placement — the
// canonical root for local searches that explore single-array moves.
func (p *Predictor) SampleState() *DeltaState { return p.sampleState }

// predictVia is the shared evaluation path behind Predict, PredictState,
// PredictDelta, and PredictFull.
func (p *Predictor) predictVia(target *placement.Placement, prev *DeltaState, useCache bool, span string) (*Prediction, *DeltaState, error) {
	if err := placement.Check(p.trace, target, p.model.Cfg); err != nil {
		return nil, nil, err
	}
	rec := obs.OrNop(p.rec)
	enabled := rec.Enabled()
	var start float64
	if enabled {
		start = rec.Now()
	}
	an, st, stats := p.evalState(target, prev, useCache)
	pred, err := p.model.predictFrom(an, p.sampleAn, &p.profile)
	if err != nil {
		return nil, nil, err
	}
	if enabled {
		if span == "predict_delta" {
			rec.Add("model_delta_predictions_total", 1)
		}
		p.recordPrediction(rec, pred, span, stats, start)
	}
	return pred, st, nil
}

// predictFrom assembles the Eq 1 prediction from a target analysis.
func (m *Model) predictFrom(an, sampleAn *Analysis, prof *SampleProfile) (*Prediction, error) {
	cfg := m.Cfg
	pred := &Prediction{Events: an.Events, Analysis: an, StagingNS: an.StagingNS}

	tcomp := m.tcomp(an, sampleAn, prof)
	pred.TComp = tcomp

	// The queuing model needs the kernel's execution span to turn the
	// instruction-count arrival proxy into arrival rates; the span in turn
	// depends on the memory cost the queuing model produces. The map
	// span → predicted span is decreasing (spreading arrivals lowers
	// utilization and queuing delay), so the self-consistent span is the
	// unique fixed point, found by bisection.
	type terms struct{ total, tmem, toverlap, amat, dramNS, queueNS float64 }
	eval := func(spanNS float64) (r terms) {
		r.dramNS, r.queueNS = m.dramLatency(an, spanNS)
		r.amat = m.amat(an, r.dramNS)
		r.tmem = m.tmem(an, r.amat)
		r.toverlap = m.toverlap(an, tcomp, r.tmem, r.amat)
		r.total = tcomp + r.tmem - r.toverlap
		if r.total < tcomp {
			r.total = tcomp
		}
		return r
	}

	nsPerCycle := cfg.NSPerCycle()
	var at terms
	if !m.Opts.Queuing || an.Network.Banks() == 0 {
		at = eval(0)
	} else {
		// Bracket the fixed point: lo is the no-memory-cost span, hi is
		// doubled until the predicted span falls below it. Once hi has been
		// evaluated (atHi), at holds its terms, so the result needs no
		// further evaluation.
		uncontended := eval(0).total
		lo := tcomp * nsPerCycle
		if lo <= 0 {
			lo = 1
		}
		hi := uncontended * nsPerCycle
		if hi < lo {
			hi = lo
		}
		atHi := false
		for i := 0; i < 60; i++ {
			r := eval(hi)
			if r.total*nsPerCycle <= hi {
				at, atHi = r, true
				break
			}
			hi *= 2
			pred.FixedPointIters++
		}
		for i := 0; i < 50 && hi-lo > 1e-3*hi; i++ {
			mid := (lo + hi) / 2
			r := eval(mid)
			if r.total*nsPerCycle > mid {
				lo = mid
			} else {
				hi, at, atHi = mid, r, true
			}
			pred.FixedPointIters++
		}
		if !atHi {
			at = eval(hi)
		}
	}
	pred.TMem = at.tmem
	pred.TOverlap = at.toverlap
	pred.AMAT = at.amat
	pred.DRAMLatNS = at.dramNS
	pred.QueueDelayNS = at.queueNS

	pred.Cycles = tcomp + at.tmem - at.toverlap
	if pred.Cycles < tcomp {
		pred.Cycles = tcomp
	}
	pred.TimeNS = pred.Cycles*cfg.NSPerCycle() + an.StagingNS
	if math.IsNaN(pred.TimeNS) || pred.TimeNS <= 0 {
		return nil, fmt.Errorf("core: degenerate prediction (%.3f ns)", pred.TimeNS)
	}
	return pred, nil
}
