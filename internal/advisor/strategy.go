package advisor

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gpuhms/internal/core"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/placement"
)

// Strategy selects how a ranking search covers the legal placement space.
// The built-in strategies — Exhaustive, Greedy, Beam — are the closed set of
// implementations (the interface has an unexported method); pick one by
// constructor or parse a wire spec with ParseStrategy.
//
// Every strategy preserves the engine contracts (docs/SEARCH.md): results are
// deterministic for any worker count, a MaxCandidates budget stops the search
// with a *hmserr.BudgetError carrying Evaluated/Total coverage, and a
// canceled context wins over every other stop cause. Sub-exhaustive
// strategies (greedy, beam) rank only the candidates they visit, so their
// rankings are a subset of the exhaustive one — the top-1 agrees on all
// bundled kernels (pinned in tests), but in general a sub-exhaustive search
// may return a near-optimal placement with bounded regret.
type Strategy interface {
	// Spec returns the canonical wire spelling of the strategy:
	// "exhaustive", "greedy", "beam-4". It is what the service echoes in
	// RankResponse.Coverage and keys its result cache on.
	Spec() string

	// run drives the shared ranking engine. Unexported: the strategy set is
	// closed so the engine contracts stay enforceable.
	run(e *engine)
}

// DefaultBeamWidth is the frontier width Beam uses when none is given; it is
// also the width the "beam" spec (no suffix) parses to.
const DefaultBeamWidth = 4

// MaxBeamWidth caps the frontier width accepted from wire specs, so a
// hostile "beam-1000000000" cannot turn a bounded search back into an
// exhaustive one with a giant frontier.
const MaxBeamWidth = 4096

// Exhaustive returns the complete-enumeration strategy: every legal
// placement is predicted, exactly the classic Rank semantics. It is the
// default when RankOptions.Strategy is nil.
func Exhaustive() Strategy { return exhaustive{} }

// Greedy returns per-array coordinate descent from the sample placement:
// each round evaluates every unseen single-array move from the current
// placement (in parallel) and takes the strictly best one; the search stops
// when no move improves. A move to a placement it already evaluated is
// skipped, so a placement is never predicted twice.
func Greedy() Strategy { return greedy{} }

// Beam returns a width-w beam search over arrays in declaration order: level
// L fixes array L's space across a frontier of at most w of the best states
// seen so far (suffix arrays keep the sample's spaces until their level).
// With TopK set, a model-derived admissible lower bound (core.PlacementBound)
// prunes branches that provably cannot beat the current top-K. Widths < 1
// become DefaultBeamWidth; widths above MaxBeamWidth are capped.
func Beam(width int) Strategy {
	if width < 1 {
		width = DefaultBeamWidth
	}
	if width > MaxBeamWidth {
		width = MaxBeamWidth
	}
	return beam{width: width}
}

// ParseStrategy converts a wire spec into a Strategy: "" or "exhaustive",
// "greedy", "beam" (DefaultBeamWidth), or "beam-W" for an explicit width.
// Unknown specs (and out-of-range widths) return an error wrapping
// hmserr.ErrUnknownStrategy — caller input, never an internal failure.
func ParseStrategy(spec string) (Strategy, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	switch s {
	case "", "exhaustive":
		return Exhaustive(), nil
	case "greedy":
		return Greedy(), nil
	case "beam":
		return Beam(DefaultBeamWidth), nil
	}
	if w, ok := strings.CutPrefix(s, "beam-"); ok {
		n, err := strconv.Atoi(w)
		if err == nil && n >= 1 {
			if n > MaxBeamWidth {
				return nil, hmserr.Wrap(hmserr.ErrUnknownStrategy,
					"beam width %d exceeds max %d", n, MaxBeamWidth)
			}
			return Beam(n), nil
		}
	}
	return nil, hmserr.Wrap(hmserr.ErrUnknownStrategy,
		"%q (want exhaustive, greedy, or beam-W)", spec)
}

// exhaustive is the complete search: every legal placement predicted exactly
// once. Workers split the space's reflected order (placement.Space.GrayWalk)
// into contiguous ranges. Most consecutive placements in a range differ in a
// single array, and each of those evaluations is a delta from the previous
// one; range starts and steps that moved several arrays pay a standalone
// evaluation. Coverage and ranking are identical to a plain enumeration —
// only the visit order differs.
type exhaustive struct{}

func (exhaustive) Spec() string { return "exhaustive" }

func (exhaustive) run(e *engine) {
	raw, workers := e.space.RawSize(), int64(e.workers)
	runWorker := func(w int64) {
		var prev *core.DeltaState
		e.space.GrayWalk(e.inner, share(raw, w, workers), share(raw, w+1, workers),
			func(idx int64, moved int, pl *placement.Placement) bool {
				c := cand{idx: idx, pl: pl}
				if prev != nil && moved >= 0 {
					c.prev, c.array, c.space = prev, moved, pl.Spaces[moved]
				}
				r := e.eval(int(w), c)
				prev = r.st
				return r.ok
			})
	}
	if e.workers == 1 {
		runWorker(0)
		return
	}
	var wg sync.WaitGroup
	for w := int64(0); w < workers; w++ {
		wg.Add(1)
		go func(w int64) { defer wg.Done(); runWorker(w) }(w)
	}
	wg.Wait()
}

// share returns the first of worker w's positions when n positions are split
// into k contiguous ranges: ⌊n·w/k⌋, computed without overflow.
func share(n, w, k int64) int64 {
	hi, lo := bits.Mul64(uint64(n), uint64(w))
	q, _ := bits.Div64(hi, lo, uint64(k))
	return int64(q)
}

// greedy is per-array coordinate descent from the sample placement.
type greedy struct{}

func (greedy) Spec() string { return "greedy" }

func (greedy) run(e *engine) {
	n := e.space.Arrays()
	if n == 0 {
		return
	}
	sample := e.preds[0].SamplePlacement()
	idx, ok := e.space.IndexOf(sample)
	if !ok {
		return
	}
	cur := e.eval(0, cand{idx: idx, pl: sample.Clone()})
	if !cur.ok {
		return
	}
	curPl := cur.st.Placement()
	// seen holds every index evaluated so far. A move back to one can never
	// win a round: its score was produced when the descent's current
	// prediction was no better than now, so it is ≥ cur.ns and fails the
	// strict-improvement test below. Such moves are skipped and counted as
	// dedups.
	seen := map[int64]bool{idx: true}
	for {
		// One round: every unseen legal single-array move from the current
		// placement, in (array, option) order, each a delta from the
		// current state.
		var batch []cand
		e.space.Neighbors(curPl, 0, n, func(ni int64, j int, next *placement.Placement) {
			if seen[ni] {
				e.deduped()
				return
			}
			seen[ni] = true
			batch = append(batch, cand{idx: ni, pl: next, prev: cur.st, array: j, space: next.Spaces[j]})
		})
		if len(batch) == 0 {
			return
		}
		res := e.evalBatch(batch)
		if e.stopping() {
			return
		}
		best := -1
		for i, r := range res {
			if r.ok && (best < 0 || faster(r.ns, batch[i].idx, res[best].ns, batch[best].idx)) {
				best = i
			}
		}
		// Move only on strict improvement: the current prediction strictly
		// decreases every round, so no placement ever repeats as current and
		// the descent terminates.
		if best < 0 || res[best].ns >= cur.ns {
			return
		}
		cur, curPl = res[best], batch[best].pl
	}
}

// beam is a width-limited frontier search over arrays in declaration order,
// with admissible-bound pruning against the current top-K.
type beam struct{ width int }

func (b beam) Spec() string { return "beam-" + strconv.Itoa(b.width) }

func (b beam) run(e *engine) {
	n := e.space.Arrays()
	if n == 0 {
		return
	}
	sample := e.preds[0].SamplePlacement()
	rootIdx, ok := e.space.IndexOf(sample)
	if !ok {
		return
	}
	lower := core.NewPlacementBound(e.preds[0])

	type state struct {
		pl  *placement.Placement
		idx int64
		scored
	}
	root := e.eval(0, cand{idx: rootIdx, pl: sample.Clone()})
	if !root.ok {
		return
	}
	// evaluated records every state's score and DeltaState by index, so a
	// state truncated from the frontier and rediscovered at a later level
	// re-enters contention without a second prediction.
	evaluated := map[int64]scored{rootIdx: root}
	// Every frontier state is a fully legal placement: arrays below the
	// current level are decided, arrays at or above it still hold the
	// sample's spaces. The root is the sample itself.
	frontier := []state{{pl: sample.Clone(), idx: rootIdx, scored: root}}

	for level := 0; level < n; level++ {
		// The prune threshold is the current global k-th best prediction —
		// computed at the level barrier, where all prior evaluations have
		// completed, so it is identical for every worker count.
		worstNS, full := e.worstKept()
		// Children are deduplicated within the level (two frontier parents
		// differing only at this level generate the same child) and against
		// the current frontier.
		inFrontier := make(map[int64]bool, len(frontier))
		for _, st := range frontier {
			inFrontier[st.idx] = true
		}
		gen := map[int64]bool{}
		var batch []cand
		var readmit []state
		for _, st := range frontier {
			e.space.Neighbors(st.pl, level, level+1, func(ci int64, _ int, child *placement.Placement) {
				if gen[ci] || inFrontier[ci] {
					return
				}
				gen[ci] = true
				// Admissible bound on every completion of the child's fixed
				// prefix: if even the best case cannot beat the worst kept
				// candidate, neither the child nor any descendant can enter
				// the top-K. Strictly greater only — an equal-time completion
				// could still displace a higher-index candidate.
				if full && lower.Bound(child, level+1) > worstNS {
					e.pruned.Add(1)
					return
				}
				if sc, ok := evaluated[ci]; ok {
					e.deduped()
					readmit = append(readmit, state{pl: child, idx: ci, scored: sc})
					return
				}
				batch = append(batch, cand{idx: ci, pl: child, prev: st.st, array: level, space: child.Spaces[level]})
			})
		}
		frontier = append(frontier, readmit...)
		if len(batch) > 0 {
			res := e.evalBatch(batch)
			if e.stopping() {
				return
			}
			for i, r := range res {
				if r.ok {
					evaluated[batch[i].idx] = r
					frontier = append(frontier, state{pl: batch[i].pl, idx: batch[i].idx, scored: r})
				}
			}
		}
		// Parents stay in contention (keeping the sample's space at this
		// level); the next frontier is the best width states overall.
		sort.Slice(frontier, func(i, j int) bool {
			return faster(frontier[i].ns, frontier[i].idx, frontier[j].ns, frontier[j].idx)
		})
		if len(frontier) > b.width {
			frontier = frontier[:b.width]
		}
	}
}
