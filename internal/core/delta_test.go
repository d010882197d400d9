package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/memsys"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// legalMoves returns every legal single-array move from pl, in deterministic
// (array, option) order.
func legalMoves(tr *trace.Trace, cfg *gpu.Config, pl *placement.Placement) (arrays []int, spaces []gpu.MemSpace) {
	space := placement.NewSpace(tr, cfg)
	for j := 0; j < space.Arrays(); j++ {
		for _, sp := range space.ArrayOptions(j) {
			if sp == pl.Spaces[j] {
				continue
			}
			next := pl.WithMove(trace.ArrayID(j), sp)
			if placement.Check(tr, next, cfg) != nil {
				continue
			}
			arrays = append(arrays, j)
			spaces = append(spaces, sp)
		}
	}
	return arrays, spaces
}

func mustEqualPrediction(t *testing.T, kernel, what string, got, want *Prediction) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %s diverges from full evaluation:\n got: %+v\nwant: %+v", kernel, what, got, want)
	}
}

// TestDeltaEquivalence pins the tentpole invariant: PredictDelta returns a
// byte-identical Prediction — the full struct, including the embedded
// Analysis — to Predict and to the cache-bypassing PredictFull, for every
// bundled kernel on every registered arch, across every legal single-array
// move from the sample and along a seeded random walk. A chained check
// re-evaluates the walk's final placement on a fresh predictor, so drift
// accumulated across N deltas (or contamination through shared cache state)
// cannot hide. The chiplet arch routes local/remote spaces and interposer
// retargeting through the delta path. Under -race the arches beyond k80 run
// only on archSweepKernels' subset.
func TestDeltaEquivalence(t *testing.T) {
	swept := map[string]bool{}
	for _, name := range archSweepKernels() {
		swept[name] = true
	}
	for _, name := range kernels.Names() {
		name := name
		arches := gpu.Names()
		if !swept[name] {
			arches = []string{"k80"}
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, arch := range arches {
				cfg := gpu.MustLookup(arch)
				t.Run(arch, func(t *testing.T) {
					spec := kernels.MustGet(name)
					tr := spec.Trace(1)
					sample, err := spec.SamplePlacement(tr)
					if err != nil {
						t.Fatal(err)
					}
					m := NewModel(cfg, FullOptions())
					pr, err := NewPredictor(m, tr, sample, profile(t, cfg, tr, sample))
					if err != nil {
						t.Fatal(err)
					}

					// Every legal single-array move from the sample.
					root := pr.SampleState()
					arrays, spaces := legalMoves(tr, cfg, sample)
					for i := range arrays {
						target := sample.WithMove(trace.ArrayID(arrays[i]), spaces[i])
						dp, _, err := pr.PredictDelta(root, arrays[i], spaces[i])
						if err != nil {
							t.Fatal(err)
						}
						fp, err := pr.Predict(target)
						if err != nil {
							t.Fatal(err)
						}
						mustEqualPrediction(t, name, "delta "+target.Format(tr), dp, fp)
						if i == 0 {
							up, err := pr.PredictFull(target)
							if err != nil {
								t.Fatal(err)
							}
							mustEqualPrediction(t, name, "uncached "+target.Format(tr), up, fp)
						}
					}

					// Seeded random walk of chained deltas, each step checked against
					// a full evaluation on the same predictor.
					rng := rand.New(rand.NewSource(9))
					st := root
					for step := 0; step < 12; step++ {
						cur := st.Placement()
						arrays, spaces := legalMoves(tr, cfg, cur)
						if len(arrays) == 0 {
							break
						}
						i := rng.Intn(len(arrays))
						dp, next, err := pr.PredictDelta(st, arrays[i], spaces[i])
						if err != nil {
							t.Fatal(err)
						}
						target := cur.WithMove(trace.ArrayID(arrays[i]), spaces[i])
						fp, err := pr.Predict(target)
						if err != nil {
							t.Fatal(err)
						}
						mustEqualPrediction(t, name, "walk step", dp, fp)
						st = next
					}

					// Chained-delta drift check: the walk's final placement evaluated
					// by a predictor that has never seen any intermediate state.
					fresh, err := NewPredictor(m, tr, sample, SampleProfile{TimeNS: pr.profile.TimeNS, Events: pr.profile.Events})
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.Predict(st.Placement())
					if err != nil {
						t.Fatal(err)
					}
					got, err := pr.Predict(st.Placement())
					if err != nil {
						t.Fatal(err)
					}
					mustEqualPrediction(t, name, "chained walk end", got, want)
				})
			}
		})
	}
}

// TestPredictDeltaRejectsIllegalMoves pins that the delta path validates
// exactly like Predict: an illegal move fails, with no state returned.
func TestPredictDeltaRejectsIllegalMoves(t *testing.T) {
	cfg := gpu.KeplerK80()
	spec := kernels.MustGet("spmv")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	pr, err := NewPredictor(NewModel(cfg, FullOptions()), tr, sample, profile(t, cfg, tr, sample))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pr.PredictDelta(nil, 0, gpu.Shared); err == nil {
		t.Error("nil previous state must be rejected")
	}
	// spmv's output array is written: read-only spaces are illegal for it,
	// exactly as Predict would reject the same placement.
	st := pr.SampleState()
	out := len(tr.Arrays) - 1
	if _, _, err := pr.PredictDelta(st, out, gpu.Constant); err == nil {
		t.Error("moving a written array to constant memory must be rejected")
	}
}

// TestDeltaSpeedup: on spmv, a delta evaluation must be at least 5x faster
// than a cache-bypassing full evaluation, so the fast path cannot silently
// regress to the slow one.
func TestDeltaSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock bound: the race detector distorts timings")
	}
	cfg := gpu.KeplerK80()
	spec := kernels.MustGet("spmv")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	pr, err := NewPredictor(NewModel(cfg, FullOptions()), tr, sample, profile(t, cfg, tr, sample))
	if err != nil {
		t.Fatal(err)
	}
	arrays, spaces := legalMoves(tr, cfg, sample)
	st := pr.SampleState()
	target := sample.WithMove(trace.ArrayID(arrays[0]), spaces[0])

	// Warm both paths so neither pays one-time setup inside the clock: the
	// smoke compares steady-state delta serving (every single-move
	// contribution already cached, as after any search's first round)
	// against the full evaluation's unavoidable per-call rebuild cost.
	for j := range arrays {
		if _, _, err := pr.PredictDelta(st, arrays[j], spaces[j]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pr.PredictFull(target); err != nil {
		t.Fatal(err)
	}

	const rounds = 5
	startFull := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := pr.PredictFull(target); err != nil {
			t.Fatal(err)
		}
	}
	full := time.Since(startFull)

	startDelta := time.Now()
	for i := 0; i < rounds; i++ {
		j := i % len(arrays)
		if _, _, err := pr.PredictDelta(st, arrays[j], spaces[j]); err != nil {
			t.Fatal(err)
		}
	}
	delta := time.Since(startDelta)

	speedup := float64(full) / float64(delta)
	t.Logf("spmv: full %v, delta %v per %d evals — %.1fx", full, delta, rounds, speedup)
	if speedup < 5 {
		t.Errorf("delta speedup %.1fx < 5x — fast path regressed", speedup)
	}
}

func benchPredictor(b *testing.B) (*Predictor, *placement.Placement, []int, []gpu.MemSpace) {
	b.Helper()
	cfg := gpu.KeplerK80()
	spec := kernels.MustGet("spmv")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	pr, err := NewPredictor(NewModel(cfg, FullOptions()), tr, sample, profile(b, cfg, tr, sample))
	if err != nil {
		b.Fatal(err)
	}
	arrays, spaces := legalMoves(tr, cfg, sample)
	return pr, sample, arrays, spaces
}

// BenchmarkPredictDelta measures the per-move cost of the delta fast path on
// spmv, next to the full-eval baseline below.
func BenchmarkPredictDelta(b *testing.B) {
	pr, _, arrays, spaces := benchPredictor(b)
	st := pr.SampleState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(arrays)
		if _, _, err := pr.PredictDelta(st, arrays[j], spaces[j]); err != nil {
			b.Fatal(err)
		}
	}
}

// contributionSink keeps BenchmarkBuildContribution's builds observable.
var contributionSink *contribution

// BenchmarkBuildContribution measures the cold half of an evaluation: every
// array's accesses resolved under the sample binding and under every legal
// single-array move, on spmv (global, texture and constant streams, almost
// every warp access shape used once), on histogram (a shared scratch updated
// by atomics) and on mriq (regular tiles: few access shapes, many repeats).
// One op builds them all.
func BenchmarkBuildContribution(b *testing.B) {
	for _, kernel := range []string{"spmv", "histogram", "mriq"} {
		b.Run("k80/"+kernel, func(b *testing.B) {
			cfg := gpu.KeplerK80()
			spec := kernels.MustGet(kernel)
			tr := spec.Trace(1)
			sample, err := spec.SamplePlacement(tr)
			if err != nil {
				b.Fatal(err)
			}
			type binding struct {
				array trace.ArrayID
				space gpu.MemSpace
				addr  uint64
			}
			layout := placement.NewLayout(tr, sample)
			var binds []binding
			for i, sp := range sample.Spaces {
				binds = append(binds, binding{trace.ArrayID(i), sp, addrKeyOf(layout, sp, i)})
			}
			arrays, spaces := legalMoves(tr, cfg, sample)
			for j, a := range arrays {
				moved := placement.Retarget(tr, layout, sample, sample.WithMove(trace.ArrayID(a), spaces[j]))
				binds = append(binds, binding{trace.ArrayID(a), spaces[j], addrKeyOf(moved, spaces[j], a)})
			}
			prog := newProgram(cfg, tr)
			resolver := memsys.NewHierarchy(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, bd := range binds {
					contributionSink = prog.buildContribution(resolver, bd.array, bd.space, bd.addr)
				}
			}
		})
	}
}

// BenchmarkPredictFull measures the cache-bypassing full evaluation the
// delta path is compared against.
func BenchmarkPredictFull(b *testing.B) {
	pr, sample, arrays, spaces := benchPredictor(b)
	target := sample.WithMove(trace.ArrayID(arrays[0]), spaces[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.PredictFull(target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDRAMLatency measures one Eq 1 assembly on the spmv sample
// analysis. The queuing fixed point dominates it: about a dozen DRAM
// latency evaluations over every bank and controller stream, the most on
// the chiplet's 256 banks and 16 controllers.
func BenchmarkDRAMLatency(b *testing.B) {
	for _, arch := range []string{"k80", "chiplet"} {
		b.Run(arch, func(b *testing.B) {
			cfg := gpu.MustLookup(arch)
			spec := kernels.MustGet("spmv")
			tr := spec.Trace(1)
			sample, err := spec.SamplePlacement(tr)
			if err != nil {
				b.Fatal(err)
			}
			pr, err := NewPredictor(NewModel(cfg, FullOptions()), tr, sample, profile(b, cfg, tr, sample))
			if err != nil {
				b.Fatal(err)
			}
			an := pr.Sample()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pr.model.predictFrom(an, an, &pr.profile); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
