package core

import (
	"math"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
	"gpuhms/internal/queuing"
	"gpuhms/internal/sim"
	"gpuhms/internal/trace"
)

func profile(t testing.TB, cfg *gpu.Config, tr *trace.Trace, sample *placement.Placement) SampleProfile {
	t.Helper()
	m, err := sim.New(cfg).Run(tr, sample, sample)
	if err != nil {
		t.Fatal(err)
	}
	return SampleProfile{TimeNS: m.TimeNS, Events: m.Events}
}

func TestPredictorRejectsIllegalPlacements(t *testing.T) {
	cfg := gpu.KeplerK80()
	spec := kernels.MustGet("vecadd")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	m := NewModel(cfg, FullOptions())
	pr, err := NewPredictor(m, tr, sample, profile(t, cfg, tr, sample))
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := placement.Parse(tr, "v:T")
	if _, err := pr.Predict(bad); err == nil {
		t.Error("illegal target must be rejected")
	}
	if _, err := NewPredictor(m, tr, bad, SampleProfile{}); err == nil {
		t.Error("illegal sample must be rejected")
	}
}

// TestPredictionsFiniteForAllKernels sweeps every kernel's placements
// through every model variant and requires finite, positive, decomposable
// predictions.
func TestPredictionsFiniteForAllKernels(t *testing.T) {
	cfg := gpu.KeplerK80()
	variants := []Options{
		{},
		{InstrCounting: true},
		{InstrCounting: true, Queuing: true},
		FullOptions(),
		{HongKimOverlap: true},
		{InstrCounting: true, Queuing: true, AddressMapping: true, Variant: queuing.ClassicKingman},
	}
	for _, name := range kernels.Names() {
		spec := kernels.MustGet(name)
		tr := spec.Trace(1)
		sample, err := spec.SamplePlacement(tr)
		if err != nil {
			t.Fatal(err)
		}
		prof := profile(t, cfg, tr, sample)
		targets, err := spec.Targets(tr)
		if err != nil {
			t.Fatal(err)
		}
		all := append([]*placement.Placement{sample}, targets...)
		for vi, opts := range variants {
			m := NewModel(cfg, opts)
			pr, err := NewPredictor(m, tr, sample, prof)
			if err != nil {
				t.Fatalf("%s variant %d: %v", name, vi, err)
			}
			for _, pl := range all {
				pred, err := pr.Predict(pl)
				if err != nil {
					t.Fatalf("%s variant %d %s: %v", name, vi, pl.Format(tr), err)
				}
				if math.IsNaN(pred.TimeNS) || math.IsInf(pred.TimeNS, 0) || pred.TimeNS <= 0 {
					t.Fatalf("%s variant %d %s: time %g", name, vi, pl.Format(tr), pred.TimeNS)
				}
				if pred.TComp < 0 || pred.TMem < 0 || pred.TOverlap < 0 {
					t.Fatalf("%s: negative component %+v", name, pred)
				}
				if pred.TOverlap > pred.TMem+1e-6 {
					t.Fatalf("%s: overlap %g exceeds Tmem %g", name, pred.TOverlap, pred.TMem)
				}
				// T ≥ T_comp: overlap can only hide memory time.
				if pred.Cycles+1e-6 < pred.TComp {
					t.Fatalf("%s: total %g below Tcomp %g", name, pred.Cycles, pred.TComp)
				}
			}
		}
	}
}

func TestInstrCountingSeesAddressingModes(t *testing.T) {
	// Moving a heavily-accessed array G→T reduces the full model's T_comp;
	// the no-instruction-counting baseline cannot see the difference.
	cfg := gpu.KeplerK80()
	spec := kernels.MustGet("matrixMul")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	prof := profile(t, cfg, tr, sample)
	target, _ := placement.Parse(tr, "A:T,B:T")

	full := NewModel(cfg, FullOptions())
	prFull, _ := NewPredictor(full, tr, sample, prof)
	pSample, _ := prFull.Predict(sample)
	pTarget, _ := prFull.Predict(target)
	if pTarget.TComp >= pSample.TComp {
		t.Errorf("texture addressing should reduce Tcomp: %g vs %g",
			pTarget.TComp, pSample.TComp)
	}

	base := NewModel(cfg, Options{})
	prBase, _ := NewPredictor(base, tr, sample, prof)
	bSample, _ := prBase.Predict(sample)
	bTarget, _ := prBase.Predict(target)
	if bTarget.TComp != bSample.TComp {
		t.Errorf("baseline Tcomp should be placement-invariant: %g vs %g",
			bTarget.TComp, bSample.TComp)
	}
}

func TestReplayQuantificationDrivesTcomp(t *testing.T) {
	// neuralnet's weights:C placement explodes constant-divergence replays;
	// the full model's Tcomp must grow accordingly.
	cfg := gpu.KeplerK80()
	spec := kernels.MustGet("neuralnet")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	prof := profile(t, cfg, tr, sample)
	m := NewModel(cfg, FullOptions())
	pr, _ := NewPredictor(m, tr, sample, prof)

	pG, _ := pr.Predict(sample)
	cPl, _ := placement.Parse(tr, "weights:C")
	pC, _ := pr.Predict(cPl)
	if pC.TComp <= pG.TComp {
		t.Errorf("constant divergence should raise Tcomp: %g vs %g", pC.TComp, pG.TComp)
	}
	tPl, _ := placement.Parse(tr, "weights:T")
	pT, _ := pr.Predict(tPl)
	if pT.TComp >= pG.TComp {
		t.Errorf("texture should remove replays and lower Tcomp: %g vs %g", pT.TComp, pG.TComp)
	}
}

func TestQueuingRaisesDRAMLatencyUnderLoad(t *testing.T) {
	cfg := gpu.KeplerK80()
	spec := kernels.MustGet("vecadd") // bandwidth-hungry streaming
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	prof := profile(t, cfg, tr, sample)

	q := NewModel(cfg, Options{InstrCounting: true, Queuing: true, AddressMapping: true})
	prQ, _ := NewPredictor(q, tr, sample, prof)
	pQ, _ := prQ.Predict(sample)
	if pQ.QueueDelayNS <= 0 {
		t.Error("streaming kernel should see queuing delay")
	}
	if pQ.DRAMLatNS <= cfg.DRAM.HitLatencyNS {
		t.Errorf("DRAM latency %g below the hit latency", pQ.DRAMLatNS)
	}

	c := NewModel(cfg, Options{InstrCounting: true})
	prC, _ := NewPredictor(c, tr, sample, prof)
	pC, _ := prC.Predict(sample)
	if pC.DRAMLatNS != cfg.DRAM.MissLatencyNS {
		t.Errorf("constant-latency model uses %g, want %g", pC.DRAMLatNS, cfg.DRAM.MissLatencyNS)
	}
	if pC.QueueDelayNS != 0 {
		t.Error("constant-latency model has no queue")
	}
}

func TestOverlapObservationClamps(t *testing.T) {
	cfg := gpu.KeplerK80()
	m := NewModel(cfg, FullOptions())
	pred := &Prediction{TComp: 1000, TMem: 500, StagingNS: 0}
	pred.Events.WarpsPerSM = 8

	// Measured exactly Tc+Tm → zero overlap.
	obs := m.OverlapObservation(pred, 1500*cfg.NSPerCycle())
	if obs.Ratio != 0 {
		t.Errorf("ratio = %g, want 0", obs.Ratio)
	}
	// Measured Tc → full overlap (ratio 1).
	obs = m.OverlapObservation(pred, 1000*cfg.NSPerCycle())
	if obs.Ratio != 1 {
		t.Errorf("ratio = %g, want 1", obs.Ratio)
	}
	// Measured below Tc → clamped to 1.
	obs = m.OverlapObservation(pred, 100*cfg.NSPerCycle())
	if obs.Ratio != 1 {
		t.Errorf("ratio = %g, want clamp 1", obs.Ratio)
	}
	// Measured above Tc+Tm → clamped to 0.
	obs = m.OverlapObservation(pred, 9000*cfg.NSPerCycle())
	if obs.Ratio != 0 {
		t.Errorf("ratio = %g, want clamp 0", obs.Ratio)
	}
}

func TestFitOverlapRecoversPlantedModel(t *testing.T) {
	// Observations generated from known coefficients must be recovered.
	coeffs := []float64{0.1, 0, 0.2, 0.05, 0.3, 0.1, 0.2}
	var samples []OverlapSample
	for i := 0; i < 40; i++ {
		f := []float64{
			float64(i%5) / 5, float64(i%3) / 3, float64(i%7) / 7,
			float64(i%2) / 2, float64(i%4) / 4, float64(i%6) / 6, 1,
		}
		y := 0.0
		for j := range coeffs {
			y += coeffs[j] * f[j]
		}
		samples = append(samples, OverlapSample{Features: f, Ratio: y})
	}
	got, err := FitOverlap(samples)
	if err != nil {
		t.Fatal(err)
	}
	for j := range coeffs {
		if math.Abs(got[j]-coeffs[j]) > 1e-6 {
			t.Errorf("coeff %d = %g, want %g", j, got[j], coeffs[j])
		}
	}
}

func TestTrainedOverlapReducesError(t *testing.T) {
	// Fitting the overlap on a kernel's own placements must reduce its
	// prediction error versus zero overlap (sanity of the Eq 11 pipeline).
	cfg := gpu.KeplerK80()
	spec := kernels.MustGet("s3d")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	prof := profile(t, cfg, tr, sample)
	zero := NewModel(cfg, FullOptions())
	pr, _ := NewPredictor(zero, tr, sample, prof)

	targets, _ := spec.Targets(tr)
	all := append([]*placement.Placement{sample}, targets...)
	var samples []OverlapSample
	var errZero float64
	meas := make([]float64, len(all))
	for i, pl := range all {
		p, err := pr.Predict(pl)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.New(cfg).Run(tr, sample, pl)
		if err != nil {
			t.Fatal(err)
		}
		meas[i] = m.TimeNS
		errZero += math.Abs(p.TimeNS-m.TimeNS) / m.TimeNS
		samples = append(samples, zero.OverlapObservation(p, m.TimeNS))
	}
	coeffs, err := FitOverlap(samples)
	if err != nil {
		t.Fatal(err)
	}

	opts := FullOptions()
	opts.OverlapCoeffs = coeffs
	trained := NewModel(cfg, opts)
	prT, _ := NewPredictor(trained, tr, sample, prof)
	var errTrained float64
	for i, pl := range all {
		p, err := prT.Predict(pl)
		if err != nil {
			t.Fatal(err)
		}
		errTrained += math.Abs(p.TimeNS-meas[i]) / meas[i]
	}
	if errTrained >= errZero {
		t.Errorf("training should help in-sample: %g vs %g", errTrained, errZero)
	}
}

func TestAnalysisEventParityWithSimulator(t *testing.T) {
	// The model's trace analysis and the simulator resolve memory through
	// the same machinery; structural event counts must agree exactly for a
	// single-SM workload (identical cache interleaving).
	cfg := gpu.KeplerK80()
	cfg.SMs = 1
	spec := kernels.MustGet("vecadd")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	m, err := sim.New(cfg).Run(tr, sample, sample)
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel(cfg, FullOptions())
	an := model.AnalyzePlacement(tr, sample, sample)

	if an.Events.InstExecuted != m.Events.InstExecuted {
		t.Errorf("executed: analysis %d vs sim %d", an.Events.InstExecuted, m.Events.InstExecuted)
	}
	if an.Events.GlobalRequests != m.Events.GlobalRequests {
		t.Errorf("global requests: %d vs %d", an.Events.GlobalRequests, m.Events.GlobalRequests)
	}
	if an.Events.L2Transactions != m.Events.L2Transactions {
		t.Errorf("L2 transactions: %d vs %d", an.Events.L2Transactions, m.Events.L2Transactions)
	}
	if an.Events.TotalReplays() != m.Events.TotalReplays() {
		t.Errorf("replays: %d vs %d", an.Events.TotalReplays(), m.Events.TotalReplays())
	}
}

func TestStagingCarriesIntoPrediction(t *testing.T) {
	cfg := gpu.KeplerK80()
	spec := kernels.MustGet("triad")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	prof := profile(t, cfg, tr, sample)
	m := NewModel(cfg, FullOptions())
	pr, _ := NewPredictor(m, tr, sample, prof)
	sh, _ := placement.Parse(tr, "B:S")
	p, err := pr.Predict(sh)
	if err != nil {
		t.Fatal(err)
	}
	if p.StagingNS <= 0 {
		t.Error("shared placement prediction must include staging")
	}
}
