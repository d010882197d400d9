package core

import (
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// TestPredictorRecordsTermBreakdown checks that an attached recorder sees
// every Predict as a model span plus the Eq 1 term observations, and that
// attaching one does not change the prediction itself.
func TestPredictorRecordsTermBreakdown(t *testing.T) {
	cfg := gpu.KeplerK80()
	spec := kernels.MustGet("matrixMul")
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(cfg, FullOptions())
	prof := profile(t, cfg, tr, sample)

	bare, err := NewPredictor(m, tr, sample, prof)
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := NewPredictor(m, tr, sample, prof)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollectorWithClock(func() float64 { return 0 })
	instrumented.SetRecorder(col)

	targets, err := spec.Targets(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range targets {
		want, err := bare.Predict(target)
		if err != nil {
			t.Fatal(err)
		}
		got, err := instrumented.Predict(target)
		if err != nil {
			t.Fatal(err)
		}
		if got.TimeNS != want.TimeNS || got.TComp != want.TComp || got.TMem != want.TMem {
			t.Fatalf("recorder changed prediction of %s: %+v vs %+v", target.Format(tr), got, want)
		}
	}

	snap := col.Snapshot()
	if got := snap.Counter("model_predictions_total"); got != int64(len(targets)) {
		t.Errorf("model_predictions_total = %d, want %d", got, len(targets))
	}
	for _, name := range []string{
		"model_tcomp_cycles", "model_tmem_cycles", "model_toverlap_cycles",
		"model_amat_cycles", "model_predicted_ns",
	} {
		h := snap.Histogram(name)
		if h == nil || h.Count != int64(len(targets)) {
			t.Errorf("histogram %s missing or wrong count: %+v", name, h)
		}
	}
	spans := 0
	for _, e := range col.Timeline().Events() {
		if e.Track == "model" && e.Name == "predict" {
			spans++
		}
	}
	if spans != len(targets) {
		t.Errorf("%d model spans, want %d", spans, len(targets))
	}
	// The full model runs the queuing fixed point, so iterations were spent.
	if got := snap.Counter("model_fixedpoint_iters_total"); got <= 0 {
		t.Errorf("model_fixedpoint_iters_total = %d, want > 0", got)
	}
}

// TestPredictorCountsMergePaths checks the merge-path counters: every
// prediction counts exactly one of model_merge_{fast,exact,reused}_total.
// On the chiplet, a remote twin of an evaluated placement reuses its local
// projection's merge, and PredictFull never does.
func TestPredictorCountsMergePaths(t *testing.T) {
	cfg := gpu.MustLookup("chiplet")
	spec := kernels.MustGet("vecadd")
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewPredictor(NewModel(cfg, FullOptions()), tr, sample, profile(t, cfg, tr, sample))
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollectorWithClock(func() float64 { return 0 })
	pr.SetRecorder(col)

	arrays, spaces := legalMoves(tr, cfg, sample)
	var local, twin *placement.Placement
	for i := range arrays {
		if !spaces[i].Remote() && spaces[i].OffChip() {
			local = sample.WithMove(trace.ArrayID(arrays[i]), spaces[i])
			twin = local.WithMove(trace.ArrayID(arrays[i]), remoteOf(spaces[i]))
			break
		}
	}
	if local == nil || placement.Check(tr, twin, cfg) != nil {
		t.Fatal("vecadd on chiplet: no local off-chip move with a legal remote twin")
	}
	for _, pl := range []*placement.Placement{sample, local, twin} {
		if _, err := pr.Predict(pl); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pr.PredictFull(twin); err != nil {
		t.Fatal(err)
	}

	snap := col.Snapshot()
	fast, exact := snap.Counter("model_merge_fast_total"), snap.Counter("model_merge_exact_total")
	reused := snap.Counter("model_merge_reused_total")
	// The sample was merged at construction and the twin shares the move's
	// local projection; the move and the cache-bypassing PredictFull merge.
	if reused != 2 || fast+exact != 2 {
		t.Errorf("merges: fast %d + exact %d, reused %d; want 2 merged and 2 reused", fast, exact, reused)
	}
	if total := snap.Counter("model_predictions_total"); fast+exact+reused != total {
		t.Errorf("merge-path counters sum to %d over %d predictions", fast+exact+reused, total)
	}
}

// TestMergeMemoOnlyWithRemote pins that the merge memo exists only on
// architectures with remote spaces: without them every cached Predict
// merges, even of a placement predicted before. The k80 allocation and
// wall-clock gates (TestPredictAllocs, TestSearchWallClock,
// BenchmarkRankParallel, BenchmarkPredictDelta) repeat placements on one
// predictor and so time merges only because of this.
func TestMergeMemoOnlyWithRemote(t *testing.T) {
	for _, arch := range []string{"k80", "fermi", "hbm"} {
		cfg := gpu.MustLookup(arch)
		spec := kernels.MustGet("vecadd")
		tr := spec.Trace(1)
		sample, err := spec.SamplePlacement(tr)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := NewPredictor(NewModel(cfg, FullOptions()), tr, sample, profile(t, cfg, tr, sample))
		if err != nil {
			t.Fatal(err)
		}
		col := obs.NewCollectorWithClock(func() float64 { return 0 })
		pr.SetRecorder(col)
		const repeats = 3
		for i := 0; i < repeats; i++ {
			if _, err := pr.Predict(sample); err != nil {
				t.Fatal(err)
			}
		}
		snap := col.Snapshot()
		fast, exact := snap.Counter("model_merge_fast_total"), snap.Counter("model_merge_exact_total")
		if reused := snap.Counter("model_merge_reused_total"); reused != 0 || fast+exact != repeats {
			t.Errorf("%s: %d predictions merged %d times, reused %d merges; want every one merged", arch, repeats, fast+exact, reused)
		}
		if pr.cache.analyses != nil {
			t.Errorf("%s: merge memo allocated on an arch without remote spaces", arch)
		}
	}
}
