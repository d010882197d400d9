package advisor

import (
	"container/heap"
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// RankResult is the outcome of a ranking search: the kept candidates
// fastest-first plus the search's own coverage record, so a caller (or the
// advisory service) can report what a sub-exhaustive or budget-stopped
// search actually looked at without re-deriving it.
type RankResult struct {
	// Ranked holds the kept candidates fastest-first, tie-broken by
	// enumeration index.
	Ranked []Ranked
	// Strategy is the canonical spec of the strategy that ran
	// ("exhaustive", "greedy", "beam-4").
	Strategy string
	// Evaluated is the number of candidate placements actually predicted.
	Evaluated int
	// Pruned counts candidates a bounded search skipped because the
	// admissible lower bound proved they could not enter the top-K; 0 for
	// exhaustive and greedy searches.
	Pruned int
	// Deduped counts candidates a strategy re-submitted that were answered
	// from the per-search eval cache — free: no prediction ran and no budget
	// token was spent.
	Deduped int
	// Total is the size of the legal placement space. For a complete
	// exhaustive search it equals Evaluated; sub-exhaustive and
	// budget-stopped searches count it separately so Evaluated/Total is
	// their true coverage.
	Total int
}

// engine is the shared ranking machinery every Strategy drives: the indexed
// placement space, per-worker predictor clones and top-K heaps, the shared
// budget token pool, cancellation, and obs recording. A strategy decides
// *which* candidates to evaluate (and in what structure); the engine owns
// *how* one candidate is evaluated and kept.
type engine struct {
	inner  context.Context
	cancel context.CancelFunc

	cfg     *gpu.Config
	t       *trace.Trace
	space   *placement.Space
	preds   []*core.Predictor
	opt     RankOptions
	spec    string
	rec     obs.Recorder
	enabled bool
	workers int
	limit   int64

	granted   atomic.Int64 // prediction tokens handed out (budget pool)
	budgetHit atomic.Bool
	pruned    atomic.Int64
	dedup     atomic.Int64
	failOnce  sync.Once
	firstErr  error

	// cache maps a candidate's space index to its evaluation, so a placement
	// reachable through several strategy paths (duplicate beam children,
	// greedy rounds regenerating old neighbors) is predicted at most once per
	// search. Entries also retain the DeltaState, the parent handle for delta
	// evaluation of the candidate's own neighbors. Strategies that never
	// revisit an index (exhaustive) turn the cache off via cacheEvals: they
	// gain nothing from it, and retaining a DeltaState per candidate over a
	// complete enumeration would hold O(|space|) states alive for no reader.
	cacheMu    sync.Mutex
	cache      map[int64]*evalEntry
	cacheEvals bool

	obsMu    sync.Mutex // serializes best-so-far tracking and recording
	bestNS   float64
	bestName string

	heaps []rankHeap
}

func (e *engine) fail(err error) {
	e.failOnce.Do(func() {
		e.firstErr = err
		e.cancel()
	})
}

// stopping reports whether the search must not continue past the current
// barrier: canceled, failed, or out of budget.
func (e *engine) stopping() bool {
	return e.inner.Err() != nil || e.budgetHit.Load()
}

// evalEntry is one eval-cache slot. once makes concurrent submissions of the
// same index collapse to a single evaluation (the contribCache pattern):
// whichever caller wins the race runs the prediction, every other caller
// blocks until it completes and reads the stored result. ok is false when the
// evaluation stopped instead of completing (budget, cancellation, error) —
// terminal states for the whole search, so a poisoned entry is never a
// problem.
type evalEntry struct {
	once sync.Once
	ns   float64
	st   *core.DeltaState
	ok   bool
}

// cand is one candidate submitted for evaluation: the placement, its
// canonical space index, and — when the strategy derived it from an already
// evaluated placement by a single-array move — the parent state plus the
// move, which routes the evaluation through the delta fast path.
type cand struct {
	idx   int64
	pl    *placement.Placement
	prev  *core.DeltaState // parent state; nil forces a standalone eval
	array int              // moved array, meaningful only with prev
	space gpu.MemSpace     // its new space, meaningful only with prev
}

// evalOne evaluates one candidate on worker w's predictor: it takes a budget
// token, predicts (via delta from the candidate's parent state when one is
// attached), records, and feeds worker w's top-K heap. A candidate whose
// index is already in the per-search cache is free — no budget token, no
// prediction, no duplicate heap entry; the cached score and state come back
// as-is. Cache hits are served only while the search may continue: once the
// budget is exhausted (or the search canceled) every call returns not-ok, so
// a strategy cannot keep advancing rounds on cached answers after a budget
// stop. The returned ok is false when the search must stop (cancellation,
// budget, or a prediction error already routed through fail).
//
// Submitting the same index twice within one batch is safe: concurrent
// duplicates collapse onto one evalEntry and exactly one of them runs the
// prediction (see evalEntry); which worker's heap receives the candidate is
// racy, but the final ranking is not — the merged global top-K is contained
// in the union of per-worker top-Ks for any assignment.
func (e *engine) evalOne(w int, c cand) (float64, *core.DeltaState, bool) {
	if e.inner.Err() != nil || e.budgetHit.Load() {
		return 0, nil, false
	}
	if !e.cacheEvals {
		return e.evalCand(w, c)
	}
	e.cacheMu.Lock()
	ent, hit := e.cache[c.idx]
	if !hit {
		ent = &evalEntry{}
		e.cache[c.idx] = ent
	}
	e.cacheMu.Unlock()
	ran := false
	ent.once.Do(func() {
		ent.ns, ent.st, ent.ok = e.evalCand(w, c)
		ran = true
	})
	if !ran && ent.ok {
		e.dedup.Add(1)
		if e.enabled {
			e.rec.Add("advisor_dedup_hits_total", 1)
		}
	}
	return ent.ns, ent.st, ent.ok
}

// evalCand is the uncached evaluation behind evalOne: budget token,
// prediction, recording, heap maintenance.
func (e *engine) evalCand(w int, c cand) (float64, *core.DeltaState, bool) {
	// Take a budget token before predicting; handing back an over-limit
	// grant keeps the total number of predictions across all workers exactly
	// at the limit.
	if e.granted.Add(1) > e.limit && e.limit > 0 {
		e.granted.Add(-1)
		e.budgetHit.Store(true)
		return 0, nil, false
	}
	var start float64
	if e.enabled {
		start = e.rec.Now()
	}
	var res *core.Prediction
	var st *core.DeltaState
	var err error
	if c.prev != nil {
		res, st, err = e.preds[w].PredictDelta(c.prev, c.array, c.space)
	} else {
		res, st, err = e.preds[w].PredictState(c.pl)
	}
	if err != nil {
		e.fail(err)
		return 0, nil, false
	}
	if e.enabled {
		e.obsMu.Lock()
		if e.bestNS == 0 || res.TimeNS < e.bestNS {
			e.bestNS = res.TimeNS
			e.bestName = c.pl.Format(e.t)
			e.rec.Gauge("advisor_best_ns", e.bestNS)
		}
		e.rec.Add("advisor_evals_total", 1)
		e.rec.Span("advisor", "eval "+c.pl.Format(e.t), start, e.rec.Now()-start)
		e.rec.ReportProgress(obs.Progress{
			Evaluated: int(e.granted.Load()), BestNS: e.bestNS, Best: e.bestName,
			Strategy: e.spec, Pruned: int(e.pruned.Load()),
		})
		e.obsMu.Unlock()
	}
	// The candidate may be enumeration scratch; the state always holds a
	// private clone of it, so the heap shares that instead of cloning again.
	kept := &e.heaps[w]
	r := Ranked{PredictedNS: res.TimeNS, Index: c.idx}
	switch {
	case e.opt.TopK > 0 && len(*kept) == e.opt.TopK:
		root := &(*kept)[0]
		if r.PredictedNS < root.PredictedNS ||
			(r.PredictedNS == root.PredictedNS && r.Index < root.Index) {
			r.Placement = st.Placement()
			(*kept)[0] = r
			heap.Fix(kept, 0)
		}
	default:
		r.Placement = st.Placement()
		heap.Push(kept, r)
	}
	return res.TimeNS, st, true
}

// scored is one evalBatch outcome; ok mirrors evalOne's.
type scored struct {
	ns float64
	st *core.DeltaState
	ok bool
}

// evalBatch evaluates a batch of candidates across the engine's workers
// (item i on worker i mod w) and returns their scores in batch order. Every
// item is evaluated unless the search is stopping, so batch results — and
// anything a strategy derives from them — are identical for every worker
// count.
func (e *engine) evalBatch(batch []cand) []scored {
	out := make([]scored, len(batch))
	w := e.workers
	if w > len(batch) {
		w = len(batch)
	}
	if w <= 1 {
		for i := range batch {
			ns, st, ok := e.evalOne(0, batch[i])
			out[i] = scored{ns: ns, st: st, ok: ok}
			if !ok {
				break
			}
		}
		return out
	}
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i := wi; i < len(batch); i += w {
				ns, st, ok := e.evalOne(wi, batch[i])
				out[i] = scored{ns: ns, st: st, ok: ok}
				if !ok {
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	return out
}

// worstKept returns the current global k-th best prediction (the pruning
// threshold) and whether the kept set is full. Must be called at a barrier —
// no evaluation in flight. The union of the worker heaps always contains the
// global top-K of everything evaluated so far, so the answer is identical
// for every worker count.
func (e *engine) worstKept() (float64, bool) {
	if e.opt.TopK <= 0 {
		return 0, false
	}
	var all []Ranked
	for _, h := range e.heaps {
		all = append(all, h...)
	}
	if len(all) < e.opt.TopK {
		return 0, false
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].PredictedNS != all[j].PredictedNS {
			return all[i].PredictedNS < all[j].PredictedNS
		}
		return all[i].Index < all[j].Index
	})
	return all[e.opt.TopK-1].PredictedNS, true
}

// Search is the ranking engine behind Advisor.RankPlacements: it runs
// opt.Strategy (nil = Exhaustive) over the legal placement space of t
// through pr and returns the kept candidates fastest-first, tie-broken by
// enumeration index, together with the search's coverage.
//
// With opt.Parallelism > 1 candidate evaluations fan out over that many
// workers, each predicting on a private clone of pr with a private top-K
// heap; every ordering decision (heap eviction, frontier selection, final
// sort) uses the (PredictedNS, Index) total order, so the result is
// identical to the sequential search for every worker count. The only
// worker-count-dependent behavior is *which* placements a MaxCandidates
// budget covers: the budget is a shared atomic token pool, so exactly
// MaxCandidates predictions run, but the evaluated subset follows worker
// interleaving rather than a deterministic prefix.
//
// Cancellation and budget semantics are uniform across strategies: a
// canceled ctx wins over any other stop cause, a prediction error cancels
// the remaining work and is returned as-is, and a budget stop returns the
// partial result with a *hmserr.BudgetError carrying Evaluated/Total
// coverage.
func Search(ctx context.Context, cfg *gpu.Config, t *trace.Trace, pr *core.Predictor, opt RankOptions, rec obs.Recorder) (*RankResult, error) {
	rec = obs.OrNop(rec)
	strat := opt.Strategy
	if strat == nil {
		strat = Exhaustive()
	}
	space := placement.NewSpace(t, cfg)

	workers := opt.Parallelism
	if workers < 1 {
		workers = 1
	}
	if raw := space.RawSize(); raw > 0 && int64(workers) > raw {
		workers = int(raw)
	}
	preds := make([]*core.Predictor, workers)
	preds[0] = pr
	for w := 1; w < workers; w++ {
		preds[w] = pr.Clone()
	}

	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	e := &engine{
		inner:   inner,
		cancel:  cancel,
		cfg:     cfg,
		t:       t,
		space:   space,
		preds:   preds,
		opt:     opt,
		spec:    strat.Spec(),
		rec:     rec,
		enabled: rec.Enabled(),
		workers: workers,
		limit:   int64(opt.MaxCandidates),
		heaps:   make([]rankHeap, workers),
		cache:   make(map[int64]*evalEntry),
		// Strategies that never resubmit an index opt out in their run (the
		// exhaustive enumeration); everyone else benefits from dedup.
		cacheEvals: true,
	}

	strat.run(e)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.firstErr != nil {
		return nil, e.firstErr
	}

	candidates := int(e.granted.Load())
	out := make([]Ranked, 0, candidates)
	for _, h := range e.heaps {
		out = append(out, h...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PredictedNS != out[j].PredictedNS {
			return out[i].PredictedNS < out[j].PredictedNS
		}
		return out[i].Index < out[j].Index
	})
	if opt.TopK > 0 && len(out) > opt.TopK {
		out = out[:opt.TopK]
	}
	// Recompute the final best from the merged ranking so the Done report is
	// deterministic (the in-flight gauge tracked arrival order, not index
	// order, among equal predictions).
	bestNS, bestName := 0.0, ""
	if len(out) > 0 {
		bestNS = out[0].PredictedNS
		bestName = out[0].Placement.Format(t)
	}

	res := &RankResult{
		Ranked:    out,
		Strategy:  e.spec,
		Evaluated: candidates,
		Pruned:    int(e.pruned.Load()),
		Deduped:   int(e.dedup.Load()),
	}
	budget := e.budgetHit.Load()
	if budget || e.spec != "exhaustive" {
		// The search did not (necessarily) cover the whole legal space:
		// count it so Evaluated/Total reports the true coverage. A complete
		// exhaustive search covered exactly what it evaluated.
		res.Total = placement.CountLegal(t, cfg)
	} else {
		res.Total = candidates
	}

	rec.ReportProgress(obs.Progress{
		Evaluated: candidates, Total: res.Total, BestNS: bestNS, Best: bestName,
		Strategy: e.spec, Pruned: res.Pruned, Done: true,
	})
	if e.enabled {
		rec.Gauge("advisor_rank_evaluated", float64(candidates))
		rec.Gauge("advisor_rank_total", float64(res.Total))
		if res.Pruned > 0 {
			rec.Add("advisor_pruned_total", int64(res.Pruned))
		}
	}
	if budget {
		return res, &hmserr.BudgetError{Evaluated: candidates, Total: res.Total, What: "candidate placements"}
	}
	return res, nil
}
