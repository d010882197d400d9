// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus microbenchmarks of the performance-critical machinery. Each
// BenchmarkTableX/BenchmarkFigX iteration reproduces the corresponding
// artifact end to end (simulation runs and overlap training are memoized in
// a shared context, exactly like a user session); custom b.ReportMetric
// columns expose the reproduced headline numbers.
//
//	go test -bench=. -benchmem
package gpuhms_test

import (
	"context"
	"sync"
	"testing"

	"gpuhms"
	"gpuhms/internal/baseline"
	"gpuhms/internal/core"
	"gpuhms/internal/dram"
	"gpuhms/internal/experiments"
	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
	"gpuhms/internal/queuing"
	"gpuhms/internal/sim"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
)

func ctx(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext(gpu.MustLookup("k80"), 1)
	})
	return benchCtx
}

// BenchmarkTable1 regenerates the §II-B cosine-similarity study (Table I).
func BenchmarkTable1(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		rep, err := c.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) != 6 {
			b.Fatal("unexpected row count")
		}
	}
}

// BenchmarkFig2 regenerates the addressing-mode analysis of Fig 2.
func BenchmarkFig2(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlg1 regenerates the address-mapping detection (§III-C2).
func BenchmarkAlg1(b *testing.B) {
	c := ctx(b)
	var hit float64
	for i := 0; i < b.N; i++ {
		rep, err := c.Alg1()
		if err != nil {
			b.Fatal(err)
		}
		hit = rep.Detection.HitLatencyNS
	}
	b.ReportMetric(hit, "hit-ns")
}

// BenchmarkFig4 regenerates the inter-arrival distribution study.
func BenchmarkFig4(b *testing.B) {
	c := ctx(b)
	var mdCa float64
	for i := 0; i < b.N; i++ {
		rep, err := c.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		mdCa = rep.Rows[1].CaMean
	}
	b.ReportMetric(mdCa, "md-ca")
}

// BenchmarkFig5 regenerates the headline accuracy comparison (ours vs [7]).
func BenchmarkFig5(b *testing.B) {
	c := ctx(b)
	var ours, theirs float64
	for i := 0; i < b.N; i++ {
		rep, err := c.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		ours = rep.MeanError("our-model")
		theirs = rep.MeanError("sim-etal-ppopp12")
	}
	b.ReportMetric(ours*100, "ours-%err")
	b.ReportMetric(theirs*100, "simetal-%err")
}

// BenchmarkFig6 regenerates the PORPLE ranking duel.
func BenchmarkFig6(b *testing.B) {
	c := ctx(b)
	var foot float64
	for i := 0; i < b.N; i++ {
		rep, err := c.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		_, f := rep.RankAccuracy(func(r experiments.Fig6Row) int { return r.OursRank })
		foot = float64(f)
	}
	b.ReportMetric(foot, "ours-footrule")
}

// BenchmarkFig7 regenerates the instruction-counting ablation.
func BenchmarkFig7(b *testing.B) {
	c := ctx(b)
	var impr float64
	for i := 0; i < b.N; i++ {
		rep, err := c.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		impr = rep.Improvement("baseline", "baseline+instr-counting")
	}
	b.ReportMetric(impr*100, "ic-improv-%")
}

// BenchmarkFig8 regenerates the queuing-model ablation (with IC in place).
func BenchmarkFig8(b *testing.B) {
	c := ctx(b)
	var impr float64
	for i := 0; i < b.N; i++ {
		rep, err := c.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		impr = rep.Improvement("baseline+ic+queue(even)", "our-model")
	}
	b.ReportMetric(impr*100, "mapping-improv-%")
}

// BenchmarkFig9 regenerates the queuing-alone ablation.
func BenchmarkFig9(b *testing.B) {
	c := ctx(b)
	var impr float64
	for i := 0; i < b.N; i++ {
		rep, err := c.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		impr = rep.Improvement("baseline", "our-model")
	}
	b.ReportMetric(impr*100, "combined-improv-%")
}

// BenchmarkTable4 regenerates the benchmark inventory.
func BenchmarkTable4(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		if _, err := c.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueueVariants regenerates the queuing-approximation ablation.
func BenchmarkQueueVariants(b *testing.B) {
	c := ctx(b)
	var mm1 float64
	for i := 0; i < b.N; i++ {
		rep, err := c.QueueVariants()
		if err != nil {
			b.Fatal(err)
		}
		mm1 = rep.MeanError("ours+mm1")
	}
	b.ReportMetric(mm1*100, "mm1-%err")
}

// BenchmarkValidate regenerates the whole-corpus acceptance sweep.
func BenchmarkValidate(b *testing.B) {
	c := ctx(b)
	var mean float64
	for i := 0; i < b.N; i++ {
		rep, err := c.Validate()
		if err != nil {
			b.Fatal(err)
		}
		mean = rep.MeanError()
	}
	b.ReportMetric(mean, "grand-%err")
}

// BenchmarkSensitivity regenerates the HMS design-space sweep (re-trains
// per architecture, so this is the heaviest artifact).
func BenchmarkSensitivity(b *testing.B) {
	c := ctx(b)
	var agree float64
	for i := 0; i < b.N; i++ {
		rep, err := c.Sensitivity()
		if err != nil {
			b.Fatal(err)
		}
		agree = rep.AgreementRate()
	}
	b.ReportMetric(agree*100, "agree-%")
}

// --- Microbenchmarks of the machinery ---

// BenchmarkSimulator measures ground-truth simulation throughput on the
// matrixMul kernel (cycles per simulated kernel).
func BenchmarkSimulator(b *testing.B) {
	cfg := gpu.MustLookup("k80")
	s := sim.New(cfg)
	spec := kernels.MustGet("matrixMul")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(tr, sample, sample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceAnalysis measures the model's §IV analysis pass.
func BenchmarkTraceAnalysis(b *testing.B) {
	cfg := gpu.MustLookup("k80")
	spec := kernels.MustGet("matrixMul")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	m := core.NewModel(cfg, core.FullOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AnalyzePlacement(tr, sample, sample, false)
	}
}

// BenchmarkPredict measures one target-placement prediction (analysis +
// queuing fixed point).
func BenchmarkPredict(b *testing.B) {
	cfg := gpu.MustLookup("k80")
	spec := kernels.MustGet("spmv")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	prof, err := sim.New(cfg).Run(tr, sample, sample)
	if err != nil {
		b.Fatal(err)
	}
	m := core.NewModel(cfg, core.FullOptions())
	pr, err := core.NewPredictor(m, tr, sample,
		core.SampleProfile{TimeNS: prof.TimeNS, Events: prof.Events})
	if err != nil {
		b.Fatal(err)
	}
	target, _ := placement.Parse(tr, "val:T,cols:T")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Predict(target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainOverlap measures fitting the Eq 11 coefficients on the full
// training set (fresh context each iteration — nothing memoized).
func BenchmarkTrainOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.NewContext(gpu.MustLookup("k80"), 1)
		if _, err := c.TrainOverlap(baseline.Ours()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelGen measures trace generation.
func BenchmarkKernelGen(b *testing.B) {
	spec := kernels.MustGet("spmv")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = spec.Trace(1)
	}
}

// BenchmarkDRAMService measures the event-driven bank model.
func BenchmarkDRAMService(b *testing.B) {
	topo := gpu.MustLookup("k80").DRAM
	s := dram.NewSystem(topo, dram.DefaultMapping(topo))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Service(uint64(i)*128, float64(i))
	}
}

// BenchmarkKingman measures one G/G/1 evaluation.
func BenchmarkKingman(b *testing.B) {
	s := queuing.Stream{TauA: 50, SigmaA: 80, TauS: 8, SigmaS: 12, AccessNS: 400, Batch: 4, N: 1000}
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += queuing.QueuingDelay(s, queuing.PaperKingman)
	}
	_ = acc
}

// BenchmarkAdvisorRank measures the end-user flow: rank every legal
// placement of a kernel (advisor trained once).
func BenchmarkAdvisorRank(b *testing.B) {
	adv, err := gpuhms.NewAdvisorForArch("k80")
	if err != nil {
		b.Fatal(err)
	}
	spec, _ := gpuhms.Kernel("convolution")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adv.RankPlacements(context.Background(), tr, sample, gpuhms.RankOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
