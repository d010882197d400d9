package core

import (
	"gpuhms/internal/addrmode"
	"gpuhms/internal/gpu"
	"gpuhms/internal/memsys"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// PlacementBound is a model-derived admissible lower bound on the predicted
// time of any placement, used by bounded searches (beam) to prune branches
// that cannot beat the candidates already kept.
//
// It is admissible — never above the predictor's actual TimeNS — because it
// keeps only the terms of the prediction that are provably floors of Eq 1:
//
//   - predictFrom clamps Cycles ≥ T_comp, so TimeNS ≥ T_comp·ns/cycle +
//     StagingNS regardless of what the memory and overlap terms do.
//   - In tcomp, perSM = max(executed+replays, executed·throughput) ≥
//     executed·throughput (replays ≥ 0, throughput clamped ≥ 1), so
//     T_comp ≥ executed·throughput/activeSMs·Imbalance + W_serial.
//   - executed decomposes exactly into a placement-independent base (non-mem
//     instruction counts plus one slot per memory access) and per-array
//     addressing-mode instructions, accesses_j · InstrPerAccess(space_j),
//     each term ≥ 0.
//   - StagingNS is an exact per-array sum: shared-placed arrays stage
//     footprint·blocks bytes at the staging bandwidth, other spaces stage 0.
//
// Throughput, active SMs, imbalance, and W_serial depend only on the launch,
// never on the placement, so they are constants of the bound. For models
// without detailed instruction counting (Opts.InstrCounting false) the
// executed count is the sample's measured constant, and only the staging term
// varies per array — still admissible, just looser.
type PlacementBound struct {
	t        *trace.Trace
	cfg      *gpu.Config
	counting bool

	baseNS   float64   // placement-independent floor, ns
	scaleNS  float64   // ns per executed instruction (throughput/SMs·imbalance·ns/cycle)
	accesses []float64 // memory-instruction records per array
	minFree  []float64 // min per-array cost over the array's legal spaces
	suffix   []float64 // suffix[j] = Σ_{i≥j} minFree[i]; suffix[n] = 0
}

// NewPlacementBound derives the bound from a predictor's model, trace, and
// sample profile. The result is immutable and safe for concurrent use.
func NewPlacementBound(p *Predictor) *PlacementBound {
	m, t, cfg := p.model, p.trace, p.model.Cfg
	b := &PlacementBound{t: t, cfg: cfg, counting: m.Opts.InstrCounting}

	activeSMs := float64(cfg.ActiveSMs(t.Launch.Blocks))
	imbalance := 1.0
	if blocks := t.Launch.Blocks; float64(blocks) > activeSMs {
		perSM := float64(blocks) / activeSMs
		worst := float64((blocks + int(activeSMs) - 1) / int(activeSMs))
		imbalance = worst / perSM
	}
	nsPerCycle := cfg.NSPerCycle()
	throughput := m.effectiveThroughput(memsys.ResidentWarps(t, cfg))
	b.scaleNS = throughput / activeSMs * imbalance * nsPerCycle

	// One pass over the trace: placement-independent executed instructions
	// (non-mem counts plus one slot per memory access), barriers, and the
	// per-array memory-access counts the addressing-mode term scales.
	b.accesses = make([]float64, len(t.Arrays))
	var baseExec float64
	var syncs int64
	for wi := range t.Warps {
		for ii := range t.Warps[wi].Inst {
			in := &t.Warps[wi].Inst[ii]
			if in.Op.IsMem() {
				b.accesses[in.Array]++
				baseExec++
				continue
			}
			baseExec += float64(in.Count)
			if in.Op == trace.OpSync {
				syncs++
			}
		}
	}
	if !b.counting {
		// Prior-work counting holds the sample's executed count fixed for
		// every placement; the addressing term is then constant too, so the
		// per-array instruction component drops out of the bound.
		baseExec = float64(p.profile.Events.InstExecuted)
	}
	b.baseNS = baseExec*b.scaleNS + float64(syncs)/activeSMs*syncCost*nsPerCycle

	b.minFree = make([]float64, len(t.Arrays))
	b.suffix = make([]float64, len(t.Arrays)+1)
	for j := range t.Arrays {
		first := true
		for _, sp := range placement.Options(t, trace.ArrayID(j), cfg) {
			c := b.costOf(j, sp)
			if first || c < b.minFree[j] {
				b.minFree[j] = c
				first = false
			}
		}
	}
	for j := len(t.Arrays) - 1; j >= 0; j-- {
		b.suffix[j] = b.suffix[j+1] + b.minFree[j]
	}
	return b
}

// costOf is the per-array floor of placing array j in sp: addressing-mode
// instructions at the effective throughput plus shared-staging time.
func (b *PlacementBound) costOf(j int, sp gpu.MemSpace) float64 {
	var ns float64
	if b.counting {
		ns = b.accesses[j] * float64(addrmode.InstrPerAccess(sp, b.t.Array(trace.ArrayID(j)).Type)) * b.scaleNS
	}
	if sp == gpu.Shared {
		ns += float64(placement.SharedFootprint(b.t, trace.ArrayID(j))*b.t.Launch.Blocks) / b.cfg.SharedCopyGBs
	}
	return ns
}

// Bound returns a lower bound (ns) on the predicted time of every placement
// that agrees with pl on arrays [0, fixed) — the first `fixed` arrays take
// pl's spaces, the rest range over their legal options. fixed = len(Spaces)
// bounds pl itself; fixed = 0 bounds the whole space.
func (b *PlacementBound) Bound(pl *placement.Placement, fixed int) float64 {
	if fixed > len(pl.Spaces) {
		fixed = len(pl.Spaces)
	}
	ns := b.baseNS + b.suffix[fixed]
	for j := 0; j < fixed; j++ {
		ns += b.costOf(j, pl.Spaces[j])
	}
	return ns
}
