// Package sim is the ground-truth GPU timing simulator of the reproduction —
// the stand-in for the Tesla K80 the paper measures. It executes a
// placement-bound kernel trace on an event-driven model of the machine:
//
//   - per-SM in-order warps with greedy-oldest scheduling across SMs,
//   - one issue port per SM whose slots are consumed by executed
//     instructions, addressing-mode instructions, and instruction replays,
//   - a scoreboard allowing up to MaxPendingLoads outstanding loads per warp
//     (compute instructions consume and therefore wait for pending loads),
//   - the shared cache hierarchy of internal/memsys,
//   - the event-driven banked GDDR5 of internal/dram with true row-buffer
//     state and per-bank FIFO queuing.
//
// Because the simulator implements strictly more mechanism than any of the
// analytical models (real queues instead of Kingman's formula, real LRU
// state instead of miss ratios, per-cycle issue instead of throughput
// equations), model-vs-simulator error is a meaningful analogue of the
// paper's model-vs-hardware error.
package sim

import (
	"context"
	"fmt"

	"gpuhms/internal/addrmode"
	"gpuhms/internal/dram"
	"gpuhms/internal/gpu"
	"gpuhms/internal/memsys"
	"gpuhms/internal/obs"
	"gpuhms/internal/perf"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// Breakdown attributes a run's cycles to stall causes. All components are
// cycles averaged over the launch's active SMs, so they live on the same
// scale as Measurement.Cycles and their sum never exceeds it:
//
//   - IssueCycles: SM issue-port cycles consumed by first-issue slots,
//     including addressing-mode preambles (the §III-B instruction deltas).
//   - ReplayCycles: port cycles consumed by instruction replays other than
//     shared-memory bank conflicts (global divergence, constant misses and
//     divergence, atomic conflicts).
//   - BankConflictCycles: port cycles consumed by shared-memory
//     bank-conflict replays.
//   - MemStallCycles: issue-port idle cycles attributable to warps waiting
//     on outstanding loads (scoreboard waits and pending-load folds),
//     capped at the port's actual idle time.
//
// The residual Cycles − Total() is idle time with no attributed cause
// (tail effects, barrier skew, latency not hidden by other warps).
type Breakdown struct {
	IssueCycles        float64
	ReplayCycles       float64
	BankConflictCycles float64
	MemStallCycles     float64
}

// Total sums the attributed stall components; by construction it is ≤ the
// measurement's Cycles.
func (b *Breakdown) Total() float64 {
	return b.IssueCycles + b.ReplayCycles + b.BankConflictCycles + b.MemStallCycles
}

// Measurement is the simulator's output for one (trace, placement) pair.
type Measurement struct {
	Cycles    float64 // SM cycles until the last warp retires
	StagingNS float64 // one-time global→shared staging cost
	TimeNS    float64 // total: Cycles/clock + StagingNS
	Events    perf.Events

	// Breakdown attributes cycles to stall causes (issue, replay, memory,
	// bank conflict); see the type's invariants.
	Breakdown Breakdown

	// InterArrivals holds the DRAM request inter-arrival gaps (ns, in
	// request-issue order) when Simulator.CollectArrivals is set; the Fig 4
	// study's raw data. BankCaMean/Std are the per-bank c_a statistics,
	// computed by dram.Analyzer, the model's per-bank statistics code.
	InterArrivals         []float64
	BankCaMean, BankCaStd float64
}

// Simulator holds reusable configuration for measuring many placements of
// many kernels.
type Simulator struct {
	Cfg *gpu.Config

	// CollectArrivals enables DRAM inter-arrival collection (Fig 4).
	CollectArrivals bool

	// Recorder receives run telemetry (warp spans, event counters, DRAM
	// latency histograms) when set and enabled; nil disables recording at
	// the cost of one predicted branch per hook site.
	Recorder obs.Recorder
}

// New builds a simulator for the architecture; its DRAM system uses the
// address mapping derived from the topology (dram.DefaultMapping).
func New(cfg *gpu.Config) *Simulator {
	return &Simulator{Cfg: cfg}
}

// instruction latencies in cycles by op class; a barrier retires at issue.
func (s *Simulator) latency(op trace.Op) float64 {
	switch op {
	case trace.OpSync:
		return 0
	case trace.OpSFU:
		return s.Cfg.AvgInstLatency * 2
	case trace.OpFP64:
		return s.Cfg.AvgInstLatency * 2
	case trace.OpBranch:
		return 8
	default:
		return s.Cfg.AvgInstLatency
	}
}

type warpState struct {
	sm      int
	tr      *trace.WarpTrace
	pc      int
	ready   float64   // cycle at which the next instruction may issue
	pending []float64 // completion times of outstanding loads
	retired bool
	started float64 // cycle of the first issue (recorded warp spans)
}

// warpHeap is a binary min-heap of active warp indices ordered by (ready
// time, index). Warp states are stored by value in one pooled array — a
// pointer per warp used to be a measurable share of a run's allocations.
// The order is strict and total, so the sequence of warps the scheduler
// takes from the root is the same whatever the heap's internal shape.
type warpHeap struct {
	warps []warpState
	order []int
}

func (h *warpHeap) less(a, b int) bool {
	wa, wb := &h.warps[a], &h.warps[b]
	if wa.ready != wb.ready {
		return wa.ready < wb.ready
	}
	return a < b
}

// init establishes the heap order over h.order.
func (h *warpHeap) init() {
	for i := len(h.order)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts the entry at i toward the leaves until neither child precedes
// it.
func (h *warpHeap) down(i int) {
	o := h.order
	n := len(o)
	wi := o[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(o[r], o[c]) {
			c = r
		}
		if !h.less(o[c], wi) {
			break
		}
		o[i] = o[c]
		i = c
	}
	o[i] = wi
}

// replaceRoot swaps the root for warp wi; the root has no parent, so a
// sift-down restores the order whatever wi's ready time.
func (h *warpHeap) replaceRoot(wi int) {
	h.order[0] = wi
	h.down(0)
}

// popRoot removes the root.
func (h *warpHeap) popRoot() {
	n := len(h.order) - 1
	h.order[0] = h.order[n]
	h.order = h.order[:n]
	if n > 0 {
		h.down(0)
	}
}

// Measurer measures a (trace, placement) pair — the "hardware" of the
// reproduction. *Simulator is the real implementation; internal/faults wraps
// any Measurer to inject counter noise and degraded profiles.
type Measurer interface {
	Run(t *trace.Trace, sample, target *placement.Placement) (*Measurement, error)
	RunContext(ctx context.Context, t *trace.Trace, sample, target *placement.Placement) (*Measurement, error)
}

// Run measures the trace under the target placement. The sample placement
// (with its layout) defines address assignment per §III-E; measuring the
// sample itself is Run(t, sample, sample).
func (s *Simulator) Run(t *trace.Trace, sample, target *placement.Placement) (*Measurement, error) {
	return s.RunContext(context.Background(), t, sample, target)
}

// ctxCheckInterval is how many scheduler steps pass between context polls in
// RunContext's warp loop — frequent enough that cancellation lands well
// under 100ms even on the largest bundled kernels, rare enough to stay off
// the profile.
const ctxCheckInterval = 2048

// RunContext is Run with cancellation: the warp scheduling loop polls the
// context every few thousand steps and abandons the measurement with
// ctx.Err(). A canceled run never returns a partial Measurement.
func (s *Simulator) RunContext(ctx context.Context, t *trace.Trace, sample, target *placement.Placement) (*Measurement, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := placement.Check(t, target, s.Cfg); err != nil {
		return nil, err
	}
	sampleLayout := placement.NewLayout(t, sample)
	binding := memsys.NewBinding(s.Cfg, t, sample, sampleLayout, target)

	// The run's working state — hierarchy, per-SM caches, DRAM system, warp
	// arrays — comes from a per-architecture pool; runs are deterministic
	// regardless of whether the scratch is fresh or reused (reset restores
	// the freshly-built state exactly). Returned on every exit path.
	sc := getScratch(s.Cfg)
	defer putScratch(s.Cfg, sc)
	hier := sc.hier
	smCaches := sc.smCaches
	dramSys := sc.dramSys

	// Distribute blocks round-robin over SMs; cap resident warps per SM.
	warps := sc.warpsFor(len(t.Warps))
	smQueue := sc.smQueue // per SM: indices of not-yet-resident warps
	smQHead := sc.smQHead // per SM: next admission cursor into smQueue
	smResident := sc.smResident
	h := &warpHeap{warps: warps, order: sc.order}
	for i := range t.Warps {
		sm := t.Warps[i].Block % s.Cfg.SMs
		warps[i].sm = sm
		warps[i].tr = &t.Warps[i]
		if smResident[sm] < s.Cfg.MaxWarpsPerSM {
			smResident[sm]++
			h.order = append(h.order, i)
		} else {
			smQueue[sm] = append(smQueue[sm], i)
		}
	}
	h.init()
	// h.order was appended to above; hand the (possibly grown) buffer back
	// to the scratch so the pool keeps its capacity.
	defer func() { sc.order = h.order }()

	smFree := sc.smFree
	var ev perf.Events
	var endTime float64
	nsPerCycle := s.Cfg.NSPerCycle()
	var arrivals []float64
	lastArrival := -1.0
	// Per-bank arrival statistics for Fig 4 go through the model's analyzer,
	// so c_a has one definition; built only when arrivals are collected.
	var banks *dram.Analyzer
	if s.CollectArrivals {
		banks = dram.NewAnalyzer(s.Cfg.DRAM, dram.Mapped)
	}

	// Recording is hoisted out of the loop: with no recorder the per-step
	// cost is a single predicted branch and zero allocations (pinned by
	// TestRunContextNopRecorderAddsNoAllocs).
	rec := obs.OrNop(s.Recorder)
	enabled := rec.Enabled()
	var smTrack []string
	if enabled {
		smTrack = make([]string, s.Cfg.SMs)
		for i := range smTrack {
			smTrack[i] = fmt.Sprintf("sim/sm%d", i)
		}
	}

	// memWaitCycles accumulates warp-cycles spent waiting on outstanding
	// loads (scoreboard waits and pending-load folds) — the raw material of
	// Breakdown.MemStallCycles.
	var memWaitCycles float64

	var steps int
	for len(h.order) > 0 {
		steps++
		if steps%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// The earliest-ready warp stays at the root while it issues; the
		// step ends by sifting it down (its ready time only grows) or, when
		// it retires, by replacing or removing it.
		wi := h.order[0]
		w := &warps[wi]
		if w.pc >= len(w.tr.Inst) {
			// Retire; admit a queued warp on this SM (smQHead is a cursor so
			// the pooled queue buffers keep their capacity across runs).
			w.retired = true
			if w.ready > endTime {
				endTime = w.ready
			}
			if enabled && len(w.tr.Inst) > 0 {
				rec.Span(smTrack[w.sm], fmt.Sprintf("warp%d b%d", wi, w.tr.Block),
					w.started*nsPerCycle, (w.ready-w.started)*nsPerCycle)
			}
			if q := smQueue[w.sm]; smQHead[w.sm] < len(q) {
				next := q[smQHead[w.sm]]
				smQHead[w.sm]++
				warps[next].ready = w.ready
				h.replaceRoot(next)
			} else {
				h.popRoot()
			}
			continue
		}
		in := &w.tr.Inst[w.pc]
		st := w.ready
		if smFree[w.sm] > st {
			st = smFree[w.sm]
		}
		if w.pc == 0 {
			w.started = st
		}

		if !in.Op.IsMem() {
			// Compute and barriers consume loaded values (a barrier is the
			// intra-warp approximation of the block barrier). The wait for
			// pending loads was folded into w.ready before the warp
			// re-entered the scheduler (see below), so st already reflects
			// data readiness and the SM port is never reserved across a
			// stall; a barrier holds the port for its issue slot only.
			w.pending = w.pending[:0]
			slots := float64(memsys.CountCompute(&ev, in))
			smFree[w.sm] = st + slots
			w.ready = st + slots + s.latency(in.Op)
		} else {
			// Memory instruction: addressing-mode preamble, then the
			// load/store with its replays and data latency.
			r := hier.ResolveScratch(binding, in, &sc.mem)
			space := r.Space
			k := int64(addrmode.InstrPerAccess(space, t.Array(in.Array).Type))
			if k > 0 {
				smFree[w.sm] = st + float64(k)
				st = smFree[w.sm]
			}

			pc, dramLines := hier.ProbeLines(smCaches[w.sm], space, r.Lines, sc.dram[:0])
			sc.dram = dramLines
			r.CountEvents(&ev, k)
			pc.CountEvents(&ev)
			replays := r.StaticReplays() + pc.ConstMisses
			issueEnd := st + (1 + float64(replays))
			smFree[w.sm] = issueEnd

			var done float64
			if space == gpu.Shared {
				done = issueEnd + s.Cfg.SharedLatency + float64(r.ReplayShared)
			} else {
				// Cache-hit portion. Remote-placed arrays (chiplet) add one
				// interposer crossing to every off-chip access, hit or miss.
				interposer := 0.0
				if space.Remote() {
					interposer = s.Cfg.Interposer.LatencyNS / nsPerCycle
				}
				lat := s.Cfg.CacheHitLatency + interposer
				// DRAM portion: service each missing line; completion is the
				// slowest line.
				stNS := st * nsPerCycle
				for _, line := range dramLines {
					if s.CollectArrivals {
						if lastArrival >= 0 {
							gap := stNS - lastArrival
							if gap < 0 {
								// Scheduling can locally reorder issue
								// timestamps across SMs.
								gap = 0
							}
							arrivals = append(arrivals, gap)
						}
						lastArrival = stNS
						banks.Add(line, stNS)
					}
					dr := dramSys.Service(line, stNS)
					latNS := dr.Latency(stNS)
					if enabled {
						rec.Observe("sim_dram_latency_ns", latNS)
						if dr.Outcome == dram.Conflict {
							rec.Instant("sim/dram", "row_conflict", stNS)
						}
					}
					if l := latNS/nsPerCycle + s.Cfg.CacheHitLatency + interposer; l > lat {
						lat = l
					}
				}
				done = issueEnd + lat
			}

			if in.Op == trace.OpLoad {
				// Scoreboard: cap outstanding loads per warp.
				if len(w.pending) >= s.Cfg.MaxPendingLoads {
					// Wait for the earliest outstanding load.
					minI := 0
					for i, p := range w.pending {
						if p < w.pending[minI] {
							minI = i
						}
					}
					if w.pending[minI] > issueEnd {
						memWaitCycles += w.pending[minI] - issueEnd
						issueEnd = w.pending[minI]
					}
					w.pending = append(w.pending[:minI], w.pending[minI+1:]...)
				}
				w.pending = append(w.pending, done)
				w.ready = issueEnd
			} else {
				// Stores retire from the warp's perspective at issue.
				w.ready = issueEnd
			}
		}

		w.pc++
		// If the warp's next instruction consumes loaded values (any
		// non-memory op), fold the pending-load wait into its ready time
		// now, so a data-stalled warp sits in the heap without holding the
		// SM issue port.
		if w.pc < len(w.tr.Inst) && !w.tr.Inst[w.pc].Op.IsMem() {
			for _, p := range w.pending {
				if p > w.ready {
					memWaitCycles += p - w.ready
					w.ready = p
				}
			}
		}
		h.down(0)
	}

	// Shared staging preamble: each block copies its tile from global
	// memory; the paper estimates this from bandwidth and size.
	stagingNS := s.stagingNS(t, sample, target)

	ev.WarpsPerSM = memsys.ResidentWarps(t, s.Cfg)
	memsys.CountRowEvents(&ev, dramSys.Counts())

	m := &Measurement{
		Cycles:    endTime,
		StagingNS: stagingNS,
		TimeNS:    endTime*nsPerCycle + stagingNS,
		Events:    ev,
		Breakdown: stallBreakdown(&ev, endTime, memWaitCycles,
			float64(s.Cfg.ActiveSMs(t.Launch.Blocks))),
	}
	if enabled {
		s.record(rec, t, m, steps, nsPerCycle)
	}
	if s.CollectArrivals {
		m.InterArrivals = arrivals
		m.BankCaMean, m.BankCaStd = banks.MeanCa()
	}
	if m.TimeNS <= 0 {
		return nil, fmt.Errorf("sim: non-positive time for %s", t.Kernel)
	}
	return m, nil
}

// stallBreakdown attributes a run's cycles to stall causes. Port-slot
// components are exact (every issue slot has exactly one cause); the memory
// component is the accumulated pending-load wait capped at the port's
// actual idle time, so the components can never sum past endTime.
func stallBreakdown(ev *perf.Events, endTime, memWaitCycles, activeSMs float64) Breakdown {
	if activeSMs <= 0 {
		activeSMs = 1
	}
	totalSlots := float64(ev.IssueSlots)
	replays := float64(ev.TotalReplays())
	shared := float64(ev.ReplayShared)
	bd := Breakdown{
		IssueCycles:        (totalSlots - replays) / activeSMs,
		ReplayCycles:       (replays - shared) / activeSMs,
		BankConflictCycles: shared / activeSMs,
	}
	idle := endTime - totalSlots/activeSMs
	if idle < 0 {
		idle = 0
	}
	mem := memWaitCycles / activeSMs
	if mem > idle {
		mem = idle
	}
	bd.MemStallCycles = mem
	return bd
}

// record dumps a completed run into the recorder: the whole perf.Events
// vocabulary as counters, the stall breakdown and occupancy as gauges, and
// the run's spans on the "sim" track (simulated-time timebase).
func (s *Simulator) record(rec obs.Recorder, t *trace.Trace, m *Measurement, steps int, nsPerCycle float64) {
	rec.Add("sim_runs_total", 1)
	rec.Add("sim_steps_total", int64(steps))
	for _, nv := range m.Events.All() {
		rec.Add("sim_"+nv.Name+"_total", int64(nv.Value))
	}
	rec.Gauge("sim_warps_per_sm", m.Events.WarpsPerSM)
	rec.Gauge("sim_cycles", m.Cycles)
	rec.Gauge("sim_time_ns", m.TimeNS)
	rec.Gauge("sim_stall_issue_cycles", m.Breakdown.IssueCycles)
	rec.Gauge("sim_stall_replay_cycles", m.Breakdown.ReplayCycles)
	rec.Gauge("sim_stall_bank_conflict_cycles", m.Breakdown.BankConflictCycles)
	rec.Gauge("sim_stall_memory_cycles", m.Breakdown.MemStallCycles)
	rec.Span("sim", "run "+t.Kernel, 0, m.Cycles*nsPerCycle)
	if m.StagingNS > 0 {
		rec.Span("sim", "staging "+t.Kernel, m.Cycles*nsPerCycle, m.StagingNS)
	}
}

// stagingNS estimates the one-time global→shared copy for every array the
// target placement keeps in shared memory.
func (s *Simulator) stagingNS(t *trace.Trace, sample, target *placement.Placement) float64 {
	bytes := placement.SharedStagingBytes(t, target)
	if bytes == 0 {
		return 0
	}
	return bytes / s.Cfg.SharedCopyGBs // GB/s == bytes/ns
}
