package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

func simpleTrace(warps, insts int) *trace.Trace {
	b := trace.NewBuilder("t", trace.Launch{
		Blocks: warps, ThreadsPerBlock: 32, WarpSize: 32,
	})
	a := b.DeclareArray(trace.Array{Name: "a", Type: trace.F32, Len: warps * 32 * insts, ReadOnly: true})
	o := b.DeclareArray(trace.Array{Name: "o", Type: trace.F32, Len: warps * 32})
	for w := 0; w < warps; w++ {
		wb := b.Warp(w, 0)
		for i := 0; i < insts; i++ {
			wb.LoadCoalesced(a, int64((w*insts+i)*32), 32)
			wb.FP32(1)
		}
		wb.StoreCoalesced(o, int64(w*32), 32)
	}
	return b.MustBuild()
}

func run(t *testing.T, cfg *gpu.Config, tr *trace.Trace, spec string) *Measurement {
	t.Helper()
	sample := placement.New(len(tr.Arrays))
	target := sample
	if spec != "" {
		var err error
		target, err = placement.Parse(tr, spec)
		if err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(cfg).Run(tr, sample, target)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDeterminism(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := kernels.MustGet("spmv").Trace(1)
	sample, _ := kernels.MustGet("spmv").SamplePlacement(tr)
	m1, err := New(cfg).Run(tr, sample, sample)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(cfg).Run(tr, sample, sample)
	if err != nil {
		t.Fatal(err)
	}
	if m1.TimeNS != m2.TimeNS || !reflect.DeepEqual(m1.Events, m2.Events) {
		t.Error("simulation must be deterministic")
	}
}

func TestMoreWorkTakesLonger(t *testing.T) {
	cfg := gpu.KeplerK80()
	small := run(t, cfg, simpleTrace(64, 4), "")
	big := run(t, cfg, simpleTrace(64, 16), "")
	if big.Cycles <= small.Cycles {
		t.Errorf("4x instructions: %g vs %g cycles", big.Cycles, small.Cycles)
	}
	wide := run(t, cfg, simpleTrace(256, 4), "")
	if wide.Cycles <= small.Cycles {
		t.Errorf("4x warps: %g vs %g cycles", wide.Cycles, small.Cycles)
	}
}

func TestEventAccounting(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := simpleTrace(8, 4)
	m := run(t, cfg, tr, "")
	ev := m.Events

	// Per warp: 4 loads + 4 fp + 1 store = 9 executed, plus 2 addressing
	// instructions per global access (5 accesses).
	wantExec := int64(8 * (9 + 5*2))
	if ev.InstExecuted != wantExec {
		t.Errorf("executed = %d, want %d", ev.InstExecuted, wantExec)
	}
	if ev.InstIssued < ev.InstExecuted {
		t.Error("issued < executed")
	}
	if ev.IssueSlots < ev.InstIssued {
		t.Error("issue slots < issued")
	}
	if ev.GlobalRequests != 8*5 {
		t.Errorf("global requests = %d", ev.GlobalRequests)
	}
	if ev.DRAMRequests != ev.RowHits+ev.RowMisses+ev.RowConflicts {
		t.Error("DRAM outcome counts must sum to requests")
	}
	if ev.L2Misses > ev.L2Transactions {
		t.Error("L2 misses exceed transactions")
	}
	if ev.TotalReplays() != 0 {
		t.Errorf("coalesced kernel replays = %d", ev.TotalReplays())
	}
}

func TestIllegalPlacementRejected(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := simpleTrace(4, 2)
	sample := placement.New(len(tr.Arrays))
	bad, _ := placement.Parse(tr, "o:T") // written array in texture
	if _, err := New(cfg).Run(tr, sample, bad); err == nil {
		t.Error("illegal placement must be rejected")
	}
}

func TestSharedPlacementStagingCost(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := simpleTrace(16, 4)
	m := run(t, cfg, tr, "a:S")
	if m.StagingNS <= 0 {
		t.Error("shared placement must pay a staging cost")
	}
	wantBytes := placement.SharedStagingBytes(tr, mustParse(t, tr, "a:S"))
	if got := m.StagingNS * cfg.SharedCopyGBs; math.Abs(got-wantBytes) > 1 {
		t.Errorf("staging bytes = %g, want %g", got, wantBytes)
	}
	if m.TimeNS <= m.Cycles*cfg.NSPerCycle() {
		t.Error("TimeNS must include staging")
	}
	g := run(t, cfg, tr, "")
	if g.StagingNS != 0 {
		t.Error("global placement has no staging")
	}
}

func mustParse(t *testing.T, tr *trace.Trace, spec string) *placement.Placement {
	t.Helper()
	p, err := placement.Parse(tr, spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDivergentStoresCostReplays(t *testing.T) {
	cfg := gpu.KeplerK80()
	b := trace.NewBuilder("div", trace.Launch{Blocks: 16, ThreadsPerBlock: 32, WarpSize: 32})
	o := b.DeclareArray(trace.Array{Name: "o", Type: trace.F32, Len: 1 << 16})
	for w := 0; w < 16; w++ {
		wb := b.Warp(w, 0)
		wb.StoreStrided(o, int64(w*32), 64, 32) // 32 lines per store
		wb.FP32(1)
	}
	tr := b.MustBuild()
	m := run(t, cfg, tr, "")
	if m.Events.ReplayGlobalDiv != 16*31 {
		t.Errorf("divergence replays = %d, want %d", m.Events.ReplayGlobalDiv, 16*31)
	}
	if m.Events.InstIssued != m.Events.InstExecuted+m.Events.TotalReplays() {
		t.Error("issued = executed + replays must hold")
	}
}

func TestLatencyHidingAcrossWarps(t *testing.T) {
	// With many warps per SM, memory latency hides behind other warps'
	// issue: 8x the warps must cost far less than 8x the time of a
	// single-warp-per-SM run.
	cfg := gpu.KeplerK80()
	cfg.SMs = 1
	one := run(t, cfg, simpleTrace(1, 32), "")
	eight := run(t, cfg, simpleTrace(8, 32), "")
	if eight.Cycles > one.Cycles*4 {
		t.Errorf("8 warps took %.0f cycles vs %.0f for 1 — latency hiding broken",
			eight.Cycles, one.Cycles)
	}
}

func TestSyncDrainsPendingLoads(t *testing.T) {
	cfg := gpu.KeplerK80()
	b := trace.NewBuilder("sync", trace.Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	a := b.DeclareArray(trace.Array{Name: "a", Type: trace.F32, Len: 1024, ReadOnly: true})
	wb := b.Warp(0, 0)
	wb.LoadCoalesced(a, 0, 32)
	wb.Sync()
	tr := b.MustBuild()
	m := run(t, cfg, tr, "")
	// The sync waits for the DRAM load: total time must exceed the raw
	// miss latency.
	if m.TimeNS < cfg.DRAM.MissLatencyNS {
		t.Errorf("time %g ns < DRAM miss latency", m.TimeNS)
	}
}

func TestOccupancyCapQueuesWarps(t *testing.T) {
	cfg := gpu.KeplerK80()
	cfg.SMs = 1
	cfg.MaxWarpsPerSM = 2
	capped := run(t, cfg, simpleTrace(8, 16), "")
	cfg2 := gpu.KeplerK80()
	cfg2.SMs = 1
	cfg2.MaxWarpsPerSM = 64
	free := New(cfg2)
	tr := simpleTrace(8, 16)
	sample := placement.New(len(tr.Arrays))
	m2, err := free.Run(tr, sample, sample)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Cycles <= m2.Cycles {
		t.Errorf("occupancy cap should slow execution: %g vs %g", capped.Cycles, m2.Cycles)
	}
}

func TestCollectArrivals(t *testing.T) {
	cfg := gpu.KeplerK80()
	s := New(cfg)
	s.CollectArrivals = true
	tr := simpleTrace(32, 8)
	sample := placement.New(len(tr.Arrays))
	m, err := s.Run(tr, sample, sample)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(m.InterArrivals)) != m.Events.DRAMRequests-1 {
		t.Errorf("%d gaps for %d requests", len(m.InterArrivals), m.Events.DRAMRequests)
	}
	for _, g := range m.InterArrivals {
		if g < 0 {
			t.Fatal("negative inter-arrival gap")
		}
	}
	// Off by default.
	m2, _ := New(cfg).Run(tr, sample, sample)
	if m2.InterArrivals != nil {
		t.Error("arrivals collected without opt-in")
	}
}

// TestPlacementDirectionality pins qualitative placement effects the HMS
// literature predicts and the paper relies on.
func TestPlacementDirectionality(t *testing.T) {
	cfg := gpu.KeplerK80()

	t.Run("broadcast reads like constant memory", func(t *testing.T) {
		b := trace.NewBuilder("bc", trace.Launch{Blocks: 64, ThreadsPerBlock: 64, WarpSize: 32})
		c := b.DeclareArray(trace.Array{Name: "coef", Type: trace.F32, Len: 64, ReadOnly: true})
		o := b.DeclareArray(trace.Array{Name: "o", Type: trace.F32, Len: 64 * 64})
		for blk := 0; blk < 64; blk++ {
			for w := 0; w < 2; w++ {
				wb := b.Warp(blk, w)
				for k := 0; k < 16; k++ {
					wb.LoadBroadcast(c, int64(k), 32)
					wb.FP32(1)
				}
				wb.StoreCoalesced(o, int64(blk*64+w*32), 32)
			}
		}
		tr := b.MustBuild()
		g := run(t, cfg, tr, "")
		cm := run(t, cfg, tr, "coef:C")
		if cm.TimeNS >= g.TimeNS {
			t.Errorf("constant broadcast should beat global: %g vs %g", cm.TimeNS, g.TimeNS)
		}
	})

	t.Run("divergent indexed reads hate constant memory", func(t *testing.T) {
		tr := kernels.MustGet("neuralnet").Trace(1)
		sample, _ := kernels.MustGet("neuralnet").SamplePlacement(tr)
		g, _ := New(cfg).Run(tr, sample, sample)
		cPl, _ := placement.Parse(tr, "weights:C")
		c, _ := New(cfg).Run(tr, sample, cPl)
		if c.TimeNS <= g.TimeNS {
			t.Errorf("divergent constant should lose to global: %g vs %g", c.TimeNS, g.TimeNS)
		}
	})

	t.Run("2D locality likes 2D texture", func(t *testing.T) {
		tr := kernels.MustGet("qtc").Trace(1)
		spec := kernels.MustGet("qtc")
		sample, _ := spec.SamplePlacement(tr)
		g, _ := New(cfg).Run(tr, sample, sample)
		tp, _ := placement.Parse(tr, "distance_matrix:2T")
		tex, _ := New(cfg).Run(tr, sample, tp)
		// Column walks of a row-major matrix: the tiled texture layout must
		// not be dramatically worse, and the texture path removes
		// divergence replays.
		if tex.Events.ReplayGlobalDiv >= g.Events.ReplayGlobalDiv {
			t.Errorf("texture should remove divergence replays: %d vs %d",
				tex.Events.ReplayGlobalDiv, g.Events.ReplayGlobalDiv)
		}
	})
}

// TestPooledScratchReuse pins that reusing pooled run scratch across traces
// of different shapes and different placements never leaks state: replaying
// a run after arbitrary intervening runs reproduces it exactly.
func TestPooledScratchReuse(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := kernels.MustGet("spmv").Trace(1)
	sample, _ := kernels.MustGet("spmv").SamplePlacement(tr)
	s := New(cfg)

	first, err := s.Run(tr, sample, sample)
	if err != nil {
		t.Fatal(err)
	}
	// Intervening runs with a different trace shape and a different target
	// placement dirty (and grow) the pooled scratch.
	run(t, cfg, simpleTrace(64, 8), "")
	var alt *placement.Placement
	placement.EnumerateSeq(tr, cfg, func(p *placement.Placement) bool {
		if !p.Equal(sample) {
			alt = p.Clone()
			return false
		}
		return true
	})
	if _, err := s.Run(tr, sample, alt); err != nil {
		t.Fatal(err)
	}

	again, err := s.Run(tr, sample, sample)
	if err != nil {
		t.Fatal(err)
	}
	if first.TimeNS != again.TimeNS || first.Cycles != again.Cycles ||
		!reflect.DeepEqual(first.Events, again.Events) {
		t.Error("pooled-scratch reuse changed simulation results")
	}
}

// BenchmarkSimRun measures one sample-profiling run of the simulator on K80:
// spmv (global, texture and constant streams), histogram (a shared scratch
// updated by atomics) and mriq (regular tiles: few access shapes, many
// repeats).
func BenchmarkSimRun(b *testing.B) {
	cfg := gpu.KeplerK80()
	for _, kernel := range []string{"spmv", "histogram", "mriq"} {
		b.Run("k80/"+kernel, func(b *testing.B) {
			spec := kernels.MustGet(kernel)
			tr := spec.Trace(1)
			sample, err := spec.SamplePlacement(tr)
			if err != nil {
				b.Fatal(err)
			}
			s := New(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.RunContext(context.Background(), tr, sample, sample); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
