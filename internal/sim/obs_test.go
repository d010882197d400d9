package sim

import (
	"context"
	"math"
	"strings"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
)

// TestBreakdownInvariant checks, over every bundled kernel and all of its
// placement targets, that the stall breakdown is non-negative and its
// components sum to no more than the measured cycles — the accounting that
// lets perf.Events and timing be cross-checked.
func TestBreakdownInvariant(t *testing.T) {
	cfg := gpu.KeplerK80()
	s := New(cfg)
	for _, name := range kernels.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec := kernels.MustGet(name)
			tr := spec.Trace(1)
			sample, err := spec.SamplePlacement(tr)
			if err != nil {
				t.Fatal(err)
			}
			targets, err := spec.Targets(tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, target := range append([]*placement.Placement{sample}, targets...) {
				m, err := s.Run(tr, sample, target)
				if err != nil {
					t.Fatalf("%s: %v", target.Format(tr), err)
				}
				bd := m.Breakdown
				for _, c := range []struct {
					name string
					v    float64
				}{
					{"issue", bd.IssueCycles},
					{"replay", bd.ReplayCycles},
					{"bank_conflict", bd.BankConflictCycles},
					{"memory", bd.MemStallCycles},
				} {
					if c.v < 0 {
						t.Fatalf("%s: %s component negative: %g", target.Format(tr), c.name, c.v)
					}
				}
				if sum := bd.Total(); sum > m.Cycles*(1+1e-9) {
					t.Fatalf("%s: breakdown sum %g exceeds cycles %g", target.Format(tr), sum, m.Cycles)
				}
				// Port-slot components must agree exactly with the event
				// counters they were derived from.
				activeSMs := float64(cfg.ActiveSMs(tr.Launch.Blocks))
				wantPort := float64(m.Events.IssueSlots) / activeSMs
				if got := bd.IssueCycles + bd.ReplayCycles + bd.BankConflictCycles; !close(got, wantPort) {
					t.Fatalf("%s: port components %g != issue slots per SM %g", target.Format(tr), got, wantPort)
				}
				if bd.IssueCycles == 0 {
					t.Fatalf("%s: zero issue cycles for a non-empty kernel", target.Format(tr))
				}
			}
		})
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+b)
}

// TestRecorderCapturesRun checks the recorder hooks: counters mirror the
// measurement's events, the stall gauges mirror the breakdown, and the
// timeline holds the run span plus one span per warp.
func TestRecorderCapturesRun(t *testing.T) {
	cfg := gpu.KeplerK80()
	s := New(cfg)
	col := obs.NewCollectorWithClock(func() float64 { return 0 })
	s.Recorder = col

	spec := kernels.MustGet("matrixMul")
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run(tr, sample, sample)
	if err != nil {
		t.Fatal(err)
	}

	snap := col.Snapshot()
	if got := snap.Counter("sim_runs_total"); got != 1 {
		t.Errorf("sim_runs_total = %d, want 1", got)
	}
	if got := snap.Counter("sim_inst_executed_total"); got != m.Events.InstExecuted {
		t.Errorf("sim_inst_executed_total = %d, want %d", got, m.Events.InstExecuted)
	}
	if got := snap.Counter("sim_dram_requests_total"); got != m.Events.DRAMRequests {
		t.Errorf("sim_dram_requests_total = %d, want %d", got, m.Events.DRAMRequests)
	}
	if got := snap.GaugeValue("sim_stall_memory_cycles"); got != m.Breakdown.MemStallCycles {
		t.Errorf("sim_stall_memory_cycles = %g, want %g", got, m.Breakdown.MemStallCycles)
	}
	if m.Events.DRAMRequests > 0 {
		h := snap.Histogram("sim_dram_latency_ns")
		if h == nil || h.Count != m.Events.DRAMRequests {
			t.Errorf("sim_dram_latency_ns histogram missing or wrong count (events %d): %+v",
				m.Events.DRAMRequests, h)
		}
	}

	var runSpans, warpSpans int
	for _, e := range col.Timeline().Events() {
		switch {
		case e.Track == "sim" && strings.HasPrefix(e.Name, "run "):
			runSpans++
			if e.DurNS <= 0 {
				t.Errorf("run span has non-positive duration %g", e.DurNS)
			}
		case strings.HasPrefix(e.Track, "sim/sm"):
			warpSpans++
		}
	}
	if runSpans != 1 {
		t.Errorf("%d run spans, want 1", runSpans)
	}
	if warpSpans != len(tr.Warps) {
		t.Errorf("%d warp spans, want %d", warpSpans, len(tr.Warps))
	}
}

// TestRunContextNopRecorderAddsNoAllocs pins the observability contract:
// running with the explicit no-op recorder allocates exactly as much as
// running with no recorder at all — the instrumentation adds zero
// allocations when disabled.
func TestRunContextNopRecorderAddsNoAllocs(t *testing.T) {
	cfg := gpu.KeplerK80()
	spec := kernels.MustGet("vecadd")
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(rec obs.Recorder) float64 {
		s := New(cfg)
		s.Recorder = rec
		// Stray background allocations (a GC refilling fmt's buffer pool,
		// runtime bookkeeping) can perturb any single sample by ±1; the
		// minimum over a few samples is the function's true allocation floor.
		best := math.MaxFloat64
		for i := 0; i < 5; i++ {
			n := testing.AllocsPerRun(5, func() {
				if _, err := s.RunContext(context.Background(), tr, sample, sample); err != nil {
					t.Fatal(err)
				}
			})
			if n < best {
				best = n
			}
		}
		return best
	}
	bare := measure(nil)
	nop := measure(obs.Nop())
	// One-sided on purpose: under heavy parallel load (the full -race
	// suite) GC pressure can evict pooled scratch during the bare
	// measurement and inflate its floor, so nop < bare is noise, not a
	// contract violation. Only the recorder *adding* allocations fails.
	if nop > bare {
		t.Errorf("no-op recorder adds allocations: %.0f with nop vs %.0f bare", nop, bare)
	}
}

// Benchmarks for the observability overhead budget: `none` is the seed
// baseline, `nop` must stay within 2% of it (compare the two sub-benchmarks'
// ns/op), `collector` shows the enabled cost.
func BenchmarkRunContextRecorder(b *testing.B) {
	cfg := gpu.KeplerK80()
	spec := kernels.MustGet("matrixMul")
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, rec obs.Recorder) {
		s := New(cfg)
		s.Recorder = rec
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.RunContext(context.Background(), tr, sample, sample); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("none", func(b *testing.B) { run(b, nil) })
	b.Run("nop", func(b *testing.B) { run(b, obs.Nop()) })
	b.Run("collector", func(b *testing.B) { run(b, obs.NewCollector()) })
}
