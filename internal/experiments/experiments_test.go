package experiments

import (
	"strings"
	"sync"
	"testing"

	"gpuhms/internal/baseline"
	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/stats"
)

// sharedCtx memoizes measurements across the experiment tests in this file.
var sharedCtx = NewContext(gpu.KeplerK80(), 1)

func TestTable1(t *testing.T) {
	rep, err := sharedCtx.Table1()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Render())
	if len(rep.Rows) != len(Table1Kernels) {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// The paper's finding: issued instructions and issue slots track the
	// execution-time variation across placements for most kernels.
	passIssued := 0
	for _, row := range rep.Rows {
		if row.Placements < 2 {
			t.Errorf("%s has %d placements", row.Kernel, row.Placements)
		}
		for ev, v := range row.Sim {
			if v < -1e-9 || v > 1+1e-9 {
				t.Errorf("%s/%s similarity %g out of [0,1]", row.Kernel, ev, v)
			}
		}
		if row.Sim["inst_issued"] >= Table1Threshold {
			passIssued++
		}
	}
	if passIssued < len(rep.Rows)-1 {
		t.Errorf("inst_issued above threshold for only %d/%d kernels",
			passIssued, len(rep.Rows))
	}
	// Mean similarity of the five representative events must be high.
	for _, ev := range Table1Events {
		if m := stats.Mean(rep.AllEvents[ev]); m < 0.85 {
			t.Errorf("representative event %s mean similarity %g", ev, m)
		}
	}
}

func TestFig2(t *testing.T) {
	rep, err := sharedCtx.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Render())
	// The Fig 2 counts.
	if rep.PerAccess[gpu.Global][0] != 2 || rep.PerAccess[gpu.Texture1D][0] != 0 {
		t.Error("global/texture addressing counts wrong")
	}
	// The analytical executed-instruction delta must equal the simulator's
	// measured delta for every vecAdd placement (no algorithm change).
	for _, row := range rep.VecAddRows {
		if row.ExecutedDelta != row.MeasuredDelta {
			t.Errorf("%s: model Δ %d vs measured Δ %d",
				row.Placement, row.ExecutedDelta, row.MeasuredDelta)
		}
	}
}

func TestAlg1(t *testing.T) {
	rep, err := sharedCtx.Alg1()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Render())
	if !rep.Correct {
		t.Errorf("detection mismatched bits %v", rep.Mismatches)
	}
	d := rep.Detection
	if d.HitLatencyNS != 352 || d.MissLatencyNS != 742 || d.ConflictLatencyNS != 1008 {
		t.Errorf("latencies %g/%g/%g, want the paper's 352/742/1008",
			d.HitLatencyNS, d.MissLatencyNS, d.ConflictLatencyNS)
	}
}

func TestFig4(t *testing.T) {
	rep, err := sharedCtx.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Render())
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Samples < 100 {
			t.Errorf("%s has only %d samples", row.Kernel, row.Samples)
		}
		// The paper's core claim: GPU inter-arrival streams are bursty —
		// c_a well above the exponential's 1 for at least the gather-heavy
		// kernels.
		if row.Kernel == "md" && row.CaMean < 1.2 {
			t.Errorf("md c_a = %g, expected clearly > 1", row.CaMean)
		}
	}
}

func TestFig6(t *testing.T) {
	rep, err := sharedCtx.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Render())
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	oursExact, _ := rep.RankAccuracy(func(r Fig6Row) int { return r.OursRank })
	if !oursExact {
		t.Error("our model must rank the five placements exactly (the Fig 6 claim)")
	}
	porpleExact, porpleFoot := rep.RankAccuracy(func(r Fig6Row) int { return r.PORPLERank })
	if porpleExact {
		t.Error("PORPLE ranking exactly would contradict the Fig 6 narrative")
	}
	if porpleFoot == 0 {
		t.Error("PORPLE footrule distance should be positive")
	}
}

func TestTable4(t *testing.T) {
	rep, err := sharedCtx.Table4()
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	t.Logf("\n%s", out)
	if !strings.Contains(out, "Benchmarks for evaluation") ||
		!strings.Contains(out, "Benchmarks for training T_overlap") {
		t.Error("Table IV must show both halves")
	}
	if !strings.Contains(out, "SHOC:spmv(10)") {
		t.Error("spmv should list 10 placements including the sample")
	}
	if !strings.Contains(out, "kernelFeedForward1") {
		t.Error("neuralnet kernel name missing")
	}
}

func TestRunRegistry(t *testing.T) {
	names := Names()
	if len(names) != 13 {
		t.Errorf("registry has %d experiments", len(names))
	}
	var sb strings.Builder
	if err := Run(sharedCtx, "fig2", &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "==== fig2 ====") {
		t.Error("render missing banner")
	}
	if err := Run(sharedCtx, "nope", &sb); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestCasesEnumeration(t *testing.T) {
	cases, err := sharedCtx.Cases([]string{"neuralnet"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 5 { // sample + 4 tests
		t.Fatalf("cases = %d", len(cases))
	}
	if !cases[0].IsSample {
		t.Error("first case should be the sample")
	}
	labels := map[string]bool{}
	for _, cs := range cases[1:] {
		labels[cs.Label] = true
	}
	for _, want := range []string{"NN_C", "NN_S", "NN_T", "NN_2T"} {
		if !labels[want] {
			t.Errorf("missing label %s (have %v)", want, labels)
		}
	}
}

func TestTrainingMemoization(t *testing.T) {
	// Concurrent first calls on a fresh context race to fit; every caller
	// must still get the one memoized coefficient slice.
	c := NewContext(gpu.KeplerK80(), 1)
	models := make([]*core.Model, 2)
	errs := make([]error, len(models))
	var wg sync.WaitGroup
	for i := range models {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			models[i], errs[i] = c.Model(baseline.Ours())
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	again, err := c.Model(baseline.Ours())
	if err != nil {
		t.Fatal(err)
	}
	first := models[0].Opts.OverlapCoeffs
	if len(first) != 7 {
		t.Fatalf("coefficient count = %d, want 7 (Eq 11)", len(first))
	}
	for _, m := range append(models[1:], again) {
		if &m.Opts.OverlapCoeffs[0] != &first[0] {
			t.Error("training should be memoized per variant")
		}
	}
}

// TestTable1RenderTieOrder pins the event-selection summary's order: equal
// mean similarities (the constant-cache events tie on K80) print by name,
// identically on every call.
func TestTable1RenderTieOrder(t *testing.T) {
	rep := &Table1Report{AllEvents: map[string][]float64{
		"zeta": {0.5}, "alpha": {0.5}, "mu": {0.25, 0.75}, "top": {0.9},
		"eta": {0.5}, "beta": {0.5}, "low": {0.1},
	}}
	first := rep.Render()
	i := strings.Index(first, "All events by mean similarity")
	if i < 0 {
		t.Fatalf("summary missing:\n%s", first)
	}
	var names []string
	for _, line := range strings.Split(first[i:], "\n")[1:] {
		if f := strings.Fields(line); len(f) == 2 {
			names = append(names, f[0])
		}
	}
	want := []string{"top", "alpha", "beta", "eta", "mu", "zeta", "low"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("summary order %v, want %v", names, want)
	}
	for n := 0; n < 50; n++ {
		if got := rep.Render(); got != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", n, got, first)
		}
	}
}
