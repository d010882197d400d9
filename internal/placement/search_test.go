package placement_test

// The placement space is searched by the advisor's engine (advisor.Search).
// These tests pin the search contracts that are stated in terms of the
// space: errors, an empty space, and progress reporting. They live in an
// external test package so they can drive the engine over this package's
// enumeration.

import (
	"context"
	"errors"
	"testing"

	"gpuhms/internal/advisor"
	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/kernels"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// searchFixture profiles kmeans' sample placement on an untrained K80
// model; the search contracts below do not depend on trained parameters.
func searchFixture(t *testing.T) (*advisor.Advisor, *trace.Trace, *core.Predictor) {
	t.Helper()
	cfg := gpu.MustLookup("k80")
	a := &advisor.Advisor{Cfg: cfg, Model: core.NewModel(cfg, core.FullOptions())}
	k := kernels.MustGet("kmeans")
	tr := k.Trace(1)
	sample, err := k.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := a.PredictorContext(context.Background(), tr, sample)
	if err != nil {
		t.Fatal(err)
	}
	return a, tr, pr
}

func searchStrategies() []advisor.Strategy {
	return []advisor.Strategy{advisor.Exhaustive(), advisor.Greedy(), advisor.Beam(2)}
}

// TestSearchPropagatesErrors: a prediction error stops every strategy and
// is returned as-is with no result. A K80 predictor driven over the
// chiplet's placement space rejects the remote spaces it does not have.
func TestSearchPropagatesErrors(t *testing.T) {
	_, tr, pr := searchFixture(t)
	for _, strat := range searchStrategies() {
		res, err := advisor.Search(context.Background(), gpu.MustLookup("chiplet"), tr, pr,
			advisor.RankOptions{Strategy: strat}, nil)
		if !errors.Is(err, hmserr.ErrIllegalPlacement) {
			t.Errorf("%s: err = %v, want ErrIllegalPlacement", strat.Spec(), err)
		}
		if res != nil {
			t.Errorf("%s: failed search returned a result", strat.Spec())
		}
	}
}

// TestExhaustiveEmptySpaceReportsDone pins the empty-space reporting path: a
// search over a trace with no arrays completes with an empty ranking and
// still closes out its progress with a Done report at 0 of 0, instead of
// leaving the obs stream dangling.
func TestExhaustiveEmptySpaceReportsDone(t *testing.T) {
	a, _, _ := searchFixture(t)
	b := trace.NewBuilder("empty", trace.Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	b.Warp(0, 0).FP32(1)
	tr := b.MustBuild()
	pr, err := a.PredictorContext(context.Background(), tr, placement.New(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range searchStrategies() {
		col := obs.NewCollectorWithClock(func() float64 { return 0 })
		res, err := advisor.Search(context.Background(), a.Cfg, tr, pr, advisor.RankOptions{Strategy: strat}, col)
		if err != nil || res == nil || len(res.Ranked) != 0 || res.Evaluated != 0 || res.Total != 0 {
			t.Fatalf("%s: empty space: result %+v, err %v", strat.Spec(), res, err)
		}
		p, ok := col.Progress()
		if !ok || !p.Done || p.Evaluated != 0 || p.Total != 0 {
			t.Errorf("%s: progress = %+v (ok=%v), want done with 0/0", strat.Spec(), p, ok)
		}
	}
}

func TestGreedySearchRecordsProgress(t *testing.T) {
	a, tr, pr := searchFixture(t)
	col := obs.NewCollectorWithClock(func() float64 { return 0 })
	res, err := advisor.Search(context.Background(), a.Cfg, tr, pr,
		advisor.RankOptions{Strategy: advisor.Greedy()}, col)
	if err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if got := snap.Counter("advisor_evals_total"); got != int64(res.Evaluated) {
		t.Errorf("advisor_evals_total = %d, want %d", got, res.Evaluated)
	}
	p, ok := col.Progress()
	if !ok || !p.Done || p.Evaluated != res.Evaluated || p.Best == "" {
		t.Errorf("final progress = %+v (ok=%v), want done with %d evals", p, ok, res.Evaluated)
	}
	if snap.GaugeValue("advisor_best_ns") <= 0 {
		t.Error("advisor_best_ns gauge not set")
	}
}

func TestSearchWithoutRecorderUnchanged(t *testing.T) {
	a, tr, pr := searchFixture(t)
	for _, strat := range searchStrategies() {
		opt := advisor.RankOptions{Strategy: strat}
		r1, err1 := advisor.Search(context.Background(), a.Cfg, tr, pr, opt, nil)
		r2, err2 := advisor.Search(context.Background(), a.Cfg, tr, pr, opt, obs.NewCollector())
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(r1.Ranked) != len(r2.Ranked) || r1.Evaluated != r2.Evaluated {
			t.Fatalf("%s: recorder changed the search: %d rows/%d evals vs %d/%d", strat.Spec(),
				len(r1.Ranked), r1.Evaluated, len(r2.Ranked), r2.Evaluated)
		}
		for i := range r1.Ranked {
			if r1.Ranked[i].PredictedNS != r2.Ranked[i].PredictedNS || r1.Ranked[i].Index != r2.Ranked[i].Index {
				t.Fatalf("%s: rank %d differs with recorder attached", strat.Spec(), i)
			}
		}
	}
}
