package core

import (
	"math"
	"strings"
	"testing"

	"gpuhms/internal/dram"
	"gpuhms/internal/gpu"
	"gpuhms/internal/perf"
	"gpuhms/internal/queuing"
)

// synthetic builds a minimal Analysis for unit-testing the equations
// without a trace walk.
func synthetic(mod func(*Analysis)) *Analysis {
	a := &Analysis{
		MemInsts:        1000,
		OffchipReqs:     1000,
		TransPerOffchip: 1,
		MLP:             2,
		ActiveSMs:       13,
		Imbalance:       1,
	}
	a.Events.IssueSlots = 10000
	a.Events.InstExecuted = 10000
	a.Events.WarpsPerSM = 32
	a.Events.L2Misses = 500
	a.Events.GlobalRequests = 1000
	a.Events.L2Transactions = 1000
	if mod != nil {
		mod(a)
	}
	return a
}

func TestTcompIssueBoundWhenSaturated(t *testing.T) {
	cfg := gpu.KeplerK80()
	m := NewModel(cfg, FullOptions())
	a := synthetic(nil)
	prof := &SampleProfile{}
	got := m.tcomp(a, a, prof)
	// 32 warps/SM saturate ITILP → throughput 1 cycle/inst → issue bound.
	want := float64(a.Events.InstExecuted) / 13
	if math.Abs(got-want) > 1 {
		t.Errorf("tcomp = %g, want ≈ %g", got, want)
	}
}

func TestTcompStallBoundAtLowOccupancy(t *testing.T) {
	cfg := gpu.KeplerK80()
	m := NewModel(cfg, FullOptions())
	a := synthetic(func(a *Analysis) { a.Events.WarpsPerSM = 2 })
	prof := &SampleProfile{}
	got := m.tcomp(a, a, prof)
	// ITILP = 2.5×2 = 5 → throughput 18/5 = 3.6 cycles per instruction.
	want := float64(a.Events.InstExecuted) * (cfg.AvgInstLatency / (warpILP * 2)) / 13
	if math.Abs(got-want) > 1 {
		t.Errorf("tcomp = %g, want ≈ %g", got, want)
	}
}

func TestTcompReplaysAddSlotsNotStalls(t *testing.T) {
	cfg := gpu.KeplerK80()
	m := NewModel(cfg, FullOptions())
	base := synthetic(nil)
	prof := &SampleProfile{}
	prof.Events.InstExecuted = base.Events.InstExecuted

	withReplays := synthetic(func(a *Analysis) { a.Events.ReplayGlobalDiv = 5000 })
	t0 := m.tcomp(base, base, prof)
	t1 := m.tcomp(withReplays, base, prof)
	// Eq 3 with a zero-replay sample: the target's replays add one slot
	// each, divided over the active SMs.
	want := t0 + 5000.0/13
	if math.Abs(t1-want) > 1 {
		t.Errorf("tcomp with replays = %g, want %g", t1, want)
	}
}

func TestTcompEq3UsesSampleMeasuredReplays(t *testing.T) {
	cfg := gpu.KeplerK80()
	m := NewModel(cfg, FullOptions())
	a := synthetic(func(a *Analysis) { a.Events.ReplayGlobalDiv = 100 })
	// The sample measured 1000 replays total; the model attributes 100 of
	// them to placement-dependent causes; a target with 100 such replays
	// must therefore inherit 1000 total.
	prof := &SampleProfile{}
	prof.Events.ReplayGlobalDiv = 1000
	sampleAn := synthetic(func(s *Analysis) { s.Events.ReplayGlobalDiv = 100 })
	t1 := m.tcomp(a, sampleAn, prof)

	// With a zero-replay sample profile, Eq 3 gives 0−100+100 = 0 replays;
	// with the 1000-replay profile it gives 1000−100+100 = 1000. The
	// difference is the full measured-replay carry-over.
	profZero := &SampleProfile{}
	t0 := m.tcomp(a, sampleAn, profZero)
	if diff := t1 - t0; math.Abs(diff-1000.0/13) > 1 {
		t.Errorf("Eq 3 residue = %g, want %g", diff, 1000.0/13)
	}
}

func TestTcompImbalanceScales(t *testing.T) {
	cfg := gpu.KeplerK80()
	m := NewModel(cfg, FullOptions())
	bal := synthetic(nil)
	imb := synthetic(func(a *Analysis) { a.Imbalance = 1.5 })
	prof := &SampleProfile{}
	if got, want := m.tcomp(imb, imb, prof), 1.5*m.tcomp(bal, bal, prof); math.Abs(got-want) > 1 {
		t.Errorf("imbalance scaling: %g vs %g", got, want)
	}
}

func TestAMATComposition(t *testing.T) {
	cfg := gpu.KeplerK80()
	m := NewModel(cfg, FullOptions())
	a := synthetic(func(a *Analysis) {
		a.MemInsts = 1000
		a.OffchipReqs = 600
		a.Events.L2Misses = 300
		a.Events.SharedRequests = 400
	})
	dramNS := 500.0
	got := m.amat(a, dramNS)
	want := dramNS*cfg.CyclesPerNS()*0.3 + // DRAM trips per inst
		cfg.CacheHitLatency*0.6 + // off-chip fraction
		cfg.SharedLatency*0.4 // shared fraction
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("AMAT = %g, want %g", got, want)
	}
	// No memory instructions → zero.
	empty := synthetic(func(a *Analysis) { a.MemInsts = 0 })
	if m.amat(empty, dramNS) != 0 {
		t.Error("AMAT of memory-free kernel should be 0")
	}
}

func TestTmemScalesWithRequestsAndLatency(t *testing.T) {
	cfg := gpu.KeplerK80()
	m := NewModel(cfg, FullOptions())
	a := synthetic(nil)
	lo := m.tmem(a, 100)
	hi := m.tmem(a, 400)
	if hi <= lo {
		t.Errorf("tmem must grow with AMAT: %g vs %g", hi, lo)
	}
	busy := synthetic(func(x *Analysis) { x.MemInsts = 4000 })
	if m.tmem(busy, 100) <= lo {
		t.Error("tmem must grow with request count")
	}
	empty := synthetic(func(x *Analysis) { x.MemInsts = 0 })
	if m.tmem(empty, 100) != 0 {
		t.Error("tmem of memory-free kernel should be 0")
	}
}

func TestDramLatencyVariants(t *testing.T) {
	cfg := gpu.KeplerK80()

	// Constant-latency model: the microbenchmark row-miss value.
	mc := NewModel(cfg, Options{InstrCounting: true})
	a := synthetic(nil)
	lat, q := mc.dramLatency(a, 1000)
	if lat != cfg.DRAM.MissLatencyNS || q != 0 {
		t.Errorf("constant model: %g/%g", lat, q)
	}

	// Queuing model with no DRAM traffic falls back to the constant.
	mq := NewModel(cfg, FullOptions())
	lat, _ = mq.dramLatency(a, 1000)
	if lat != cfg.DRAM.MissLatencyNS {
		t.Errorf("no-traffic queuing model: %g", lat)
	}

	// With bank streams, the latency includes queuing and respects the
	// uncontended floor.
	withStreams := synthetic(func(x *Analysis) {
		x.RawSpanNS = 1000
		x.RowCounts.Hits = 900
		x.RowCounts.Misses = 100
		x.Network = queuing.NewNetwork([]queuing.Stream{{
			TauA: 10, SigmaA: 30, TauS: 8, SigmaS: 2,
			AccessNS: 400, Batch: 4, N: 500,
		}}, nil)
	})
	lat, q = mq.dramLatency(withStreams, 2000)
	if q <= 0 {
		t.Errorf("expected queuing delay, got %g", q)
	}
	if lat < withStreams.RowCounts.AvgServiceNS(cfg.DRAM) {
		t.Errorf("latency %g below the uncontended service floor", lat)
	}

	// Slower span (more spread arrivals) must not increase the latency.
	lat2, _ := mq.dramLatency(withStreams, 20000)
	if lat2 > lat+1e-9 {
		t.Errorf("latency must not grow as arrivals spread: %g vs %g", lat2, lat)
	}
}

func TestMwpCwpBounds(t *testing.T) {
	cfg := gpu.KeplerK80()
	m := NewModel(cfg, FullOptions())
	a := synthetic(nil)
	mwp, cwp := m.mwpCwp(a, 400)
	n := a.Events.WarpsPerSM
	if mwp < 1 || mwp > n || mwp > cfg.MWPPeakBW {
		t.Errorf("MWP %g out of bounds", mwp)
	}
	if cwp < 1 || cwp > n {
		t.Errorf("CWP %g out of bounds", cwp)
	}
}

func TestExplainMentionsComponents(t *testing.T) {
	cfg := gpu.KeplerK80()
	p := &Prediction{
		TimeNS: 1234, Cycles: 1000, TComp: 600, TMem: 500, TOverlap: 100,
		AMAT: 42, DRAMLatNS: 500, QueueDelayNS: 100,
		Analysis: synthetic(func(a *Analysis) {
			a.Events.ReplayShared = 10
			a.RowCounts = dram.OutcomeCounts{Hits: 8, Misses: 1, Conflicts: 1}
		}),
	}
	out := p.Explain(cfg.NSPerCycle())
	for _, want := range []string{"T_comp", "T_mem", "T_overlap", "replays", "row buffers", "bank conflicts 10"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	ev := perf.Events{}
	_ = ev
}
