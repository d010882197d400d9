package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// localProjection returns pl with every array in its space's local
// counterpart (Base): the placement all of pl's remote variants share.
func localProjection(pl *placement.Placement) *placement.Placement {
	out := pl.Clone()
	for i, sp := range out.Spaces {
		out.Spaces[i] = sp.Base()
	}
	return out
}

// remoteOf returns the remote counterpart of a local off-chip space.
func remoteOf(sp gpu.MemSpace) gpu.MemSpace {
	switch sp {
	case gpu.Global:
		return gpu.GlobalRemote
	case gpu.Constant:
		return gpu.ConstantRemote
	case gpu.Texture1D:
		return gpu.Texture1DRemote
	case gpu.Texture2D:
		return gpu.Texture2DRemote
	}
	panic("no remote counterpart of " + sp.LongString())
}

// remoteVariants lists every legal placement whose local projection is
// local: each off-chip array either local or remote, in binary counting
// order, so the all-local projection itself comes first when it is legal.
func remoteVariants(tr *trace.Trace, cfg *gpu.Config, local *placement.Placement) []*placement.Placement {
	var offchip []int
	for i, sp := range local.Spaces {
		if sp.OffChip() {
			offchip = append(offchip, i)
		}
	}
	var out []*placement.Placement
	for mask := 0; mask < 1<<len(offchip); mask++ {
		v := local.Clone()
		for bit, i := range offchip {
			if mask&(1<<bit) != 0 {
				v.Spaces[i] = remoteOf(local.Spaces[i])
			}
		}
		if placement.Check(tr, v, cfg) == nil {
			out = append(out, v)
		}
	}
	return out
}

// remoteRequests counts, straight from the trace, the warp-level memory
// instructions of the arrays pl places in a remote space: every one of them
// is an off-chip request that crosses the interposer.
func remoteRequests(tr *trace.Trace, pl *placement.Placement) int64 {
	var n int64
	for w := range tr.Warps {
		for k := range tr.Warps[w].Inst {
			in := &tr.Warps[w].Inst[k]
			if in.Op.IsMem() && pl.Spaces[in.Array].Remote() {
				n++
			}
		}
	}
	return n
}

// TestRemoteVariantsMatchFresh is the oracle of remote placement on the
// chiplet arch. Moving an array between local and remote stacks keeps its
// address, so every placement that differs only in which arrays are remote
// must share one analysis up to RemoteReqs. For every swept kernel it takes
// the sample and each legal single-array move, and evaluates every legal
// remote/local variant of each with the memoized Predict. Each result must
// equal a fresh predictor's cache-bypassing PredictFull, and its RemoteReqs
// must equal the remote arrays' memory instructions counted from the trace.
// Only the first variant of a local projection may build contributions or
// group sims or merge: the others reuse them.
func TestRemoteVariantsMatchFresh(t *testing.T) {
	cfg := gpu.MustLookup("chiplet")
	m := NewModel(cfg, FullOptions())
	for _, name := range archSweepKernels() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec := kernels.MustGet(name)
			tr := spec.Trace(1)
			sample, err := spec.SamplePlacement(tr)
			if err != nil {
				t.Fatal(err)
			}
			prof := profile(t, cfg, tr, sample)
			pr, err := NewPredictor(m, tr, sample, prof)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewPredictor(m, tr, sample, prof)
			if err != nil {
				t.Fatal(err)
			}
			built := func() (contribs, groups, merges int) {
				pr.cache.mu.Lock()
				contribs, merges = len(pr.cache.m), len(pr.cache.analyses)
				pr.cache.mu.Unlock()
				pr.cache.groups.mu.Lock()
				groups = len(pr.cache.groups.m)
				pr.cache.groups.mu.Unlock()
				return contribs, groups, merges
			}

			bases := []*placement.Placement{sample}
			arrays, spaces := legalMoves(tr, cfg, sample)
			for i := range arrays {
				bases = append(bases, sample.WithMove(trace.ArrayID(arrays[i]), spaces[i]))
			}
			seen := map[string]bool{}
			evaluated := 0
			for _, base := range bases {
				local := localProjection(base)
				key := local.Format(tr)
				if seen[key] {
					continue
				}
				seen[key] = true
				for j, v := range remoteVariants(tr, cfg, local) {
					c0, g0, m0 := built()
					got, err := pr.Predict(v)
					if err != nil {
						t.Fatal(err)
					}
					if c1, g1, m1 := built(); j > 0 && (c1 != c0 || g1 != g0 || m1 != m0) {
						t.Errorf("%s: %s built %d contributions, %d group sims and %d merges after an earlier variant of its local projection",
							name, v.Format(tr), c1-c0, g1-g0, m1-m0)
					}
					want, err := oracle.PredictFull(v)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualPrediction(t, name, "memoized "+v.Format(tr), got, want)
					if rr := remoteRequests(tr, v); got.Analysis.RemoteReqs != rr {
						t.Errorf("%s: %s RemoteReqs = %d, want %d", name, v.Format(tr), got.Analysis.RemoteReqs, rr)
					}
					evaluated++
				}
			}
			if evaluated == 0 {
				t.Fatalf("%s: no placement evaluated", name)
			}
		})
	}
}

// TestMergeMemoConcurrentClones drives the merge memo from several clones at
// once: each walks every legal chiplet placement of a kernel in its own
// order, so remote twins race to merge or reuse one local projection. Every
// prediction must equal the one a separate predictor makes sequentially.
func TestMergeMemoConcurrentClones(t *testing.T) {
	cfg := gpu.MustLookup("chiplet")
	m := NewModel(cfg, FullOptions())
	spec := kernels.MustGet("tablelookup")
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	prof := profile(t, cfg, tr, sample)
	ref, err := NewPredictor(m, tr, sample, prof)
	if err != nil {
		t.Fatal(err)
	}
	pls := placement.Enumerate(tr, cfg)
	want := make([]*Prediction, len(pls))
	for i, pl := range pls {
		if want[i], err = ref.Predict(pl); err != nil {
			t.Fatal(err)
		}
	}

	pr, err := NewPredictor(m, tr, sample, prof)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, clone *Predictor) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(w))).Perm(len(pls))
			for _, i := range order {
				got, err := clone.Predict(pls[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d: %s diverges from a sequential predictor", w, pls[i].Format(tr))
					return
				}
			}
		}(w, pr.Clone())
	}
	wg.Wait()
}
