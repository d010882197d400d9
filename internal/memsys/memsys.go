// Package memsys resolves warp-level memory instructions against the HMS
// memory hierarchy: per-lane element indices become device or shared-memory
// addresses under a placement, coalesce into transactions, probe the
// appropriate caches, and finally yield the DRAM request stream.
//
// It is also the one place that maps those outcomes onto perf.Events, the
// nvprof vocabulary of the paper's Table I: Resolved.CountEvents counts the
// cache-independent half of an access, ProbeCounts.CountEvents the
// cache-dependent half, CountRowEvents the DRAM row-buffer outcomes, and
// ResidentWarps gives the occupancy. The analytical models (internal/core)
// and the ground-truth timing simulator (internal/sim) both resolve and
// count through these functions, so where their counters differ they differ
// about cache or DRAM state (the models replay each per-SM cache space
// through one lockstep cache; the simulator keeps one per SM and times the
// DRAM), never about which counter an outcome increments.
package memsys

import (
	"gpuhms/internal/cache"
	"gpuhms/internal/dram"
	"gpuhms/internal/gpu"
	"gpuhms/internal/perf"
	"gpuhms/internal/placement"
	"gpuhms/internal/replay"
	"gpuhms/internal/sharedmem"
	"gpuhms/internal/trace"
)

// Hierarchy holds the system-wide cache level (L2) and configuration.
type Hierarchy struct {
	Cfg *gpu.Config
	L2  *cache.Cache
	Sh  sharedmem.Config
}

// NewHierarchy builds the shared level of the memory hierarchy.
func NewHierarchy(cfg *gpu.Config) *Hierarchy {
	return &Hierarchy{
		Cfg: cfg,
		L2:  cache.New(cfg.L2),
		Sh:  sharedmem.FromGPU(cfg),
	}
}

// SMCaches holds the per-SM cache level (constant and texture caches).
type SMCaches struct {
	Const *cache.Cache
	Tex   *cache.Cache
}

// NewSMCaches builds one SM's private caches.
func NewSMCaches(cfg *gpu.Config) *SMCaches {
	return &SMCaches{
		Const: cache.New(cfg.Constant),
		Tex:   cache.New(cfg.Texture),
	}
}

// Reset invalidates both private caches, returning the SM to its
// freshly-built state so one allocation can serve many runs.
func (s *SMCaches) Reset() {
	s.Const.Reset()
	s.Tex.Reset()
}

// Binding fixes a trace to a placement and layout so instructions can be
// resolved to addresses.
type Binding struct {
	Trace      *trace.Trace
	Place      *placement.Placement
	Layout     *placement.Layout
	Tex2DShift uint // log2 of the 2D texture tile edge
}

// NewBinding resolves the layout of a placement and returns the binding.
func NewBinding(cfg *gpu.Config, t *trace.Trace, sample *placement.Placement, sampleLayout *placement.Layout, target *placement.Placement) *Binding {
	return &Binding{
		Trace:      t,
		Place:      target,
		Layout:     placement.Retarget(t, sampleLayout, sample, target),
		Tex2DShift: cfg.TextureBlockShift,
	}
}

// Addresses resolves one memory instruction's active lanes into byte
// addresses: device addresses for off-chip spaces (with 2D-texture
// swizzling applied) or block-local addresses for shared memory. The
// returned slice is appended to buf to let callers reuse storage.
//
// The space and the array's constants (element size, base or shared offset,
// shared tile length) are fixed per instruction, so they are resolved once
// and each lane costs a multiply-add; the shared tile wrap divides only for
// lanes beyond the first tile.
func (b *Binding) Addresses(in *trace.Inst, buf []uint64) []uint64 {
	id := in.Array
	arr := b.Trace.Array(id)
	eb := uint64(arr.Type.Bytes())
	out := buf[:0]
	switch b.Place.Of(id).Base() {
	case gpu.Shared:
		// Layout.SharedAddress with the tile length hoisted.
		off := b.Layout.SharedOff[id]
		elems := uint64(placement.SharedFootprint(b.Trace, id)) / eb
		if elems == 0 {
			elems = 1
		}
		for _, ix := range in.Index {
			if ix == trace.Inactive {
				continue
			}
			local := uint64(ix)
			if local >= elems {
				local %= elems
			}
			out = append(out, off+local*eb)
		}
	case gpu.Texture2D:
		base := b.Layout.Base[id]
		for _, ix := range in.Index {
			if ix == trace.Inactive {
				continue
			}
			out = append(out, base+uint64(cache.Swizzle2D(ix, arr.Width, b.Tex2DShift))*eb)
		}
	default:
		base := b.Layout.Base[id]
		for _, ix := range in.Index {
			if ix == trace.Inactive {
				continue
			}
			out = append(out, base+uint64(ix)*eb)
		}
	}
	return out
}

// Scratch holds the reusable per-caller buffers of ResolveScratch: resolved
// addresses and coalesced line sets. One Scratch serves one caller's whole
// replay loop; the zero value is ready to use and the buffers grow to the
// high-water mark of the trace.
type Scratch struct {
	addrs []uint64
	lines []uint64
	words []uint64
}

// Reset clears all cache state in the hierarchy (not the per-SM caches).
func (h *Hierarchy) Reset() { h.L2.Reset() }

// Resolved is the cache-independent half of resolving one memory access: the
// per-lane addresses coalesced into first-level transactions and the replays
// that depend only on the address pattern (divergence, shared bank conflicts,
// atomic serialization). It is a pure function of (instruction, space,
// address binding) — no cache state is read or written — so it can be
// computed once per binding and reused, with ProbeLines supplying the
// cache-dependent half per evaluation. CountEvents maps it onto perf.Events.
type Resolved struct {
	Space gpu.MemSpace

	// Transactions is the number of first-level accesses the warp access
	// coalesced into: L2 transactions for global, constant words for
	// constant, texture-cache lines for texture, 1 for shared memory or a
	// warp with no active lane.
	Transactions int

	// Replays holds the cache-independent replay causes only: global and
	// constant divergence, shared bank conflicts, atomic conflicts. Constant
	// cache misses (cause (2)) are cache state and come from ProbeLines.
	Replays replay.Breakdown

	SharedConflicts int

	// Lines holds the first-level cache line addresses this access probes
	// (L2 transaction lines for global, constant-cache lines for constant,
	// texture-cache lines for texture); nil for shared memory, which never
	// reaches a cache. The slice aliases the Scratch — consume it before the
	// next ResolveScratch call on the same Scratch.
	Lines []uint64
}

// ResolveScratch computes the cache-independent resolution of one memory
// instruction: addresses, coalescing, and static replays, with the
// first-level line stream left unprobed. It reads no cache state, so it is
// safe to call concurrently on a shared Hierarchy (unlike ProbeLines).
func (h *Hierarchy) ResolveScratch(b *Binding, in *trace.Inst, sc *Scratch) Resolved {
	sp := b.Place.Of(in.Array)
	res := Resolved{Space: sp}
	addrs := b.Addresses(in, sc.addrs)
	sc.addrs = addrs
	if len(addrs) == 0 {
		res.Transactions = 1
		return res
	}

	// Atomics serialize over same-address lanes regardless of the memory
	// space (§III-B replay cause (6)); the per-space effects below apply on
	// top.
	if in.Op == trace.OpAtomic {
		res.Replays.Add(replay.AtomicConflict, replay.AtomicConflictReplays(addrs))
	}

	switch sp.Base() {
	case gpu.Shared:
		res.Transactions = 1
		conflicts := replay.SharedConflictReplays(h.Sh, addrs)
		res.SharedConflicts = int(conflicts)
		res.Replays.Add(replay.SharedBankConflict, conflicts)

	case gpu.Global:
		lines := cache.LinesTouchedInto(sc.lines, addrs, h.Cfg.TransactionBytes)
		sc.lines = lines
		res.Transactions = len(lines)
		res.Replays.Add(replay.GlobalDivergence, int64(len(lines)-1))
		res.Lines = lines

	case gpu.Constant:
		// Constant memory serializes over distinct words; each distinct
		// word beyond the first is a divergence replay (cause 3). The
		// distinct constant-cache lines are what ProbeLines probes.
		words := cache.LinesTouchedInto(sc.words, addrs, b.Trace.Array(in.Array).Type.Bytes())
		sc.words = words
		res.Replays.Add(replay.ConstantDivergence, int64(len(words)-1))
		lines := cache.LinesTouchedInto(sc.lines, addrs, h.Cfg.Constant.LineBytes)
		sc.lines = lines
		res.Transactions = len(words)
		res.Lines = lines

	case gpu.Texture1D, gpu.Texture2D:
		lines := cache.LinesTouchedInto(sc.lines, addrs, h.Cfg.Texture.LineBytes)
		sc.lines = lines
		res.Transactions = len(lines)
		res.Lines = lines
	}
	return res
}

// CountEvents adds the cache-independent events of one warp-level memory
// instruction to ev: its addressing-mode preamble of preamble integer
// instructions (§III-B), the instruction itself with its static replays
// (issue slots, issued and load/store instructions), its warp-level request
// by space, its first-level constant- or texture-cache accesses, and its
// shared bank conflicts. ProbeCounts.CountEvents adds the cache-dependent
// rest; together they are the one mapping from an access to perf.Events that
// the simulator and the models share.
func (r *Resolved) CountEvents(ev *perf.Events, preamble int64) {
	static := r.Replays.Total()
	ev.InstExecuted += preamble + 1
	ev.InstInteger += preamble
	ev.InstIssued += preamble + 1 + static
	ev.IssueSlots += preamble + 1 + static
	ev.LdstIssued += 1 + static
	switch r.Space.Base() {
	case gpu.Global:
		ev.GlobalRequests++
	case gpu.Constant:
		ev.ConstantRequest++
		ev.ConstAccesses += int64(len(r.Lines))
	case gpu.Texture1D, gpu.Texture2D:
		ev.TextureRequests++
		ev.TexAccesses += int64(len(r.Lines))
	case gpu.Shared:
		ev.SharedRequests++
	}
	ev.ReplayGlobalDiv += r.Replays.ByReason[replay.GlobalDivergence]
	ev.ReplayConstDiv += r.Replays.ByReason[replay.ConstantDivergence]
	ev.ReplayShared += r.Replays.ByReason[replay.SharedBankConflict]
	ev.ReplayAtomic += r.Replays.ByReason[replay.AtomicConflict]
	ev.SharedBankConflicts += int64(r.SharedConflicts)
}

// ProbeCounts are the cache-dependent outcomes of replaying one access's
// first-level lines through the shared caches.
type ProbeCounts struct {
	// ConstMisses counts constant-cache misses; each one is also an
	// instruction replay (§III-B cause (2)).
	ConstMisses int64
	TexMisses   int64
	L2Accesses  int64
	L2Misses    int64
}

// ProbeLines is the cache-dependent half of an access: it replays one
// access's first-level lines (Resolved.Lines) through the shared caches in
// line order, updating their state, and appends the lines that miss everything — the DRAM requests — to dram.
// Shared-memory accesses have no lines and probe nothing. Because the caches
// are shared, the outcome depends on every access probed before this one:
// this is the cross-array cache interaction (one array evicting another's
// lines) that per-array resolution deliberately leaves out.
func (h *Hierarchy) ProbeLines(sm *SMCaches, sp gpu.MemSpace, lines []uint64, dram []uint64) (ProbeCounts, []uint64) {
	var pc ProbeCounts
	switch sp.Base() {
	case gpu.Global:
		for _, ln := range lines {
			pc.L2Accesses++
			if !h.L2.Access(ln) {
				pc.L2Misses++
				dram = append(dram, ln)
			}
		}
	case gpu.Constant:
		for _, ln := range lines {
			if !sm.Const.Access(ln) {
				pc.ConstMisses++
				pc.L2Accesses++
				if !h.L2.Access(ln) {
					pc.L2Misses++
					dram = append(dram, ln)
				}
			}
		}
	case gpu.Texture1D, gpu.Texture2D:
		for _, ln := range lines {
			if !sm.Tex.Access(ln) {
				pc.TexMisses++
				pc.L2Accesses++
				if !h.L2.Access(ln) {
					pc.L2Misses++
					dram = append(dram, ln)
				}
			}
		}
	}
	return pc, dram
}

// CountEvents adds the cache-dependent events of one or more accesses'
// probes to ev: L2 transactions and misses, constant- and texture-cache
// misses, and the constant-miss replays (§III-B cause (2)), each of which
// also takes an issue slot and re-issues the load/store. Probe counts sum, so
// counting a sum equals counting its parts.
func (pc ProbeCounts) CountEvents(ev *perf.Events) {
	ev.InstIssued += pc.ConstMisses
	ev.IssueSlots += pc.ConstMisses
	ev.LdstIssued += pc.ConstMisses
	ev.ReplayConstMiss += pc.ConstMisses
	ev.ConstMisses += pc.ConstMisses
	ev.TexMisses += pc.TexMisses
	ev.L2Transactions += pc.L2Accesses
	ev.L2Misses += pc.L2Misses
}

// CountRowEvents adds a DRAM request stream's row-buffer outcomes to ev: one
// DRAM request per classified access.
func CountRowEvents(ev *perf.Events, c dram.OutcomeCounts) {
	ev.RowHits += c.Hits
	ev.RowMisses += c.Misses
	ev.RowConflicts += c.Conflicts
	ev.DRAMRequests += c.Total()
}

// ResidentWarps returns the average resident warps per active SM of a
// launch, capped at the SM's warp limit: the occupancy (perf.Events
// WarpsPerSM) that the simulator reports and the models assume.
func ResidentWarps(t *trace.Trace, cfg *gpu.Config) float64 {
	per := float64(t.Launch.TotalWarps()) / float64(cfg.ActiveSMs(t.Launch.Blocks))
	if max := float64(cfg.MaxWarpsPerSM); per > max {
		return max
	}
	return per
}
