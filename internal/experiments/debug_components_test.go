package experiments

import (
	"testing"

	"gpuhms/internal/baseline"
	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
)

// TestDebugComponents dumps the Eq 1 decomposition of the worst-predicted
// evaluation rows (development aid, kept as a living diagnostic).
func TestDebugComponents(t *testing.T) {
	c := NewContext(gpu.KeplerK80(), 1)
	m, err := c.Model(baseline.Ours())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("coeffs=%v", m.Opts.OverlapCoeffs)
	cases, err := c.Cases([]string{"reduction", "neuralnet", "s3d", "fft", "sort"}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range cases {
		prof, err := c.Measure(cs.Kernel, cs.Sample, cs.Sample)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := core.NewPredictor(m, cs.Trace, cs.Sample,
			core.SampleProfile{TimeNS: prof.TimeNS, Events: prof.Events})
		if err != nil {
			t.Fatal(err)
		}
		pred, err := pr.Predict(cs.Target)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := c.Measure(cs.Kernel, cs.Sample, cs.Target)
		if err != nil {
			t.Fatal(err)
		}
		an := pred.Analysis
		t.Logf("%-14s meas=%8.0f pred=%8.0f (%.2fx) Tc=%7.0f Tm=%7.0f To=%7.0f AMAT=%5.0f dram=%5.0f q=%4.0f exec=%d rep=%d mem=%d mlp=%.1f feats=%v",
			cs.Label, meas.TimeNS, pred.TimeNS, pred.TimeNS/meas.TimeNS,
			pred.TComp, pred.TMem, pred.TOverlap, pred.AMAT, pred.DRAMLatNS, pred.QueueDelayNS,
			an.Events.InstExecuted, an.Events.TotalReplays(), an.MemInsts, an.MLP, pred.Events.OverlapFeatures())
	}
}
