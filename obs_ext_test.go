package gpuhms

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestRankBudgetProgressSurvivesInSnapshot pins the observability contract
// for budget-limited searches: when RankPlacements returns ErrBudgetExceeded,
// the collector's snapshot carries how many placements were evaluated
// versus how many the legal space holds, and the error message names both.
func TestRankBudgetProgressSurvivesInSnapshot(t *testing.T) {
	adv := untrainedAdvisor()
	col := NewCollector()
	adv.Recorder = col
	spec, err := Kernel("stencil2d")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	total := len(EnumeratePlacements(tr, adv.Cfg))

	_, err = adv.RankPlacements(context.Background(), tr, sample, RankOptions{MaxCandidates: 2})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	if want := "2 of "; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not report evaluated/total coverage", err)
	}

	snap := col.Snapshot()
	if snap.Search == nil {
		t.Fatal("snapshot carries no search progress")
	}
	if snap.Search.Evaluated != 2 || snap.Search.Total != total || !snap.Search.Done {
		t.Errorf("progress = %+v, want evaluated 2 of %d, done", snap.Search, total)
	}
	if snap.Search.BestNS <= 0 || snap.Search.Best == "" {
		t.Errorf("progress lost the best-so-far: %+v", snap.Search)
	}
	if got := snap.GaugeValue("advisor_rank_total"); got != float64(total) {
		t.Errorf("advisor_rank_total = %g, want %d", got, total)
	}
}

// TestCollectorEndToEnd drives a full advisor session with a collector
// attached and checks every artifact: simulator counters, model term
// histograms, a Perfetto-loadable Chrome trace, and Prometheus metrics.
func TestCollectorEndToEnd(t *testing.T) {
	adv := untrainedAdvisor()
	col := NewCollector()
	adv.Recorder = col
	spec, err := Kernel("vecadd")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adv.RankPlacements(context.Background(), tr, sample, RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranked := res.Ranked
	if len(ranked) == 0 {
		t.Fatal("empty ranking")
	}

	snap := col.Snapshot()
	if snap.Counter("sim_runs_total") != 1 {
		t.Errorf("sim_runs_total = %d, want 1 (the profiling run)", snap.Counter("sim_runs_total"))
	}
	if got := snap.Counter("model_predictions_total"); got != int64(len(ranked)) {
		t.Errorf("model_predictions_total = %d, want %d", got, len(ranked))
	}
	if got := snap.Counter("advisor_evals_total"); got != int64(len(ranked)) {
		t.Errorf("advisor_evals_total = %d, want %d", got, len(ranked))
	}
	if snap.Search == nil || !snap.Search.Done || snap.Search.Total != len(ranked) {
		t.Errorf("final search progress = %+v", snap.Search)
	}
	if snap.Search != nil && snap.Search.BestNS != ranked[0].PredictedNS {
		t.Errorf("progress best %g != ranking best %g", snap.Search.BestNS, ranked[0].PredictedNS)
	}

	var trace bytes.Buffer
	if err := col.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Ph string  `json:"ph"`
			Ts float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	last := -1.0
	for i, e := range parsed.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.Ts < last {
			t.Fatalf("event %d: ts %g decreases from %g", i, e.Ts, last)
		}
		last = e.Ts
	}

	var prom bytes.Buffer
	if err := col.WriteMetricsText(&prom); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"sim_issue_slots_total", "model_predictions_total",
		"model_tcomp_cycles_bucket", "advisor_best_ns", "sim_stall_memory_cycles",
	} {
		if !strings.Contains(prom.String(), series) {
			t.Errorf("prometheus output missing %s", series)
		}
	}
}

// TestAdvisorWithoutRecorderUnchanged: attaching a collector must not
// change the ranking itself, under any strategy, and the collector's final
// progress report must match the result's coverage.
func TestAdvisorWithoutRecorderUnchanged(t *testing.T) {
	spec, err := Kernel("triad")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	bare := untrainedAdvisor()
	instrumented := untrainedAdvisor()
	for _, strat := range []Strategy{Exhaustive(), GreedyStrategy()} {
		col := NewCollector()
		instrumented.Recorder = col
		opt := RankOptions{Strategy: strat}
		r1, err := bare.RankPlacements(context.Background(), tr, sample, opt)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := instrumented.RankPlacements(context.Background(), tr, sample, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Ranked) != len(r2.Ranked) || r1.Evaluated != r2.Evaluated {
			t.Fatalf("%s: rankings differ: %d rows/%d evals vs %d/%d", strat.Spec(),
				len(r1.Ranked), r1.Evaluated, len(r2.Ranked), r2.Evaluated)
		}
		for i := range r1.Ranked {
			if r1.Ranked[i].PredictedNS != r2.Ranked[i].PredictedNS ||
				!r1.Ranked[i].Placement.Equal(r2.Ranked[i].Placement) {
				t.Fatalf("%s: rank %d differs with recorder attached", strat.Spec(), i)
			}
		}
		p := col.Snapshot().Search
		if p == nil || !p.Done || p.Strategy != strat.Spec() || p.Evaluated != r2.Evaluated ||
			p.Total != r2.Total || p.BestNS != r2.Ranked[0].PredictedNS {
			t.Errorf("%s: final progress = %+v, want done at %d/%d best %g", strat.Spec(),
				p, r2.Evaluated, r2.Total, r2.Ranked[0].PredictedNS)
		}
	}
}
