// Package memsys resolves warp-level memory instructions against the HMS
// memory hierarchy: per-lane element indices become device or shared-memory
// addresses under a placement, coalesce into transactions, probe the
// appropriate caches, and finally yield the DRAM request stream. Along the
// way it quantifies the placement-dependent instruction replays of §III-B:
// causes (1)–(4) — global address divergence, constant-cache misses,
// indexed-constant divergence, shared-memory bank conflicts — plus atomic
// address conflicts (cause (6)). Causes (5)–(10) are assumed identical
// between the sample and target placements (Eq 3).
//
// It is also the one place that maps instructions onto perf.Events, the
// nvprof vocabulary of the paper's Table I: CountCompute counts a non-memory
// instruction, Resolved.CountEvents the cache-independent half of a memory
// access, ProbeCounts.CountEvents the cache-dependent half, CountRowEvents
// the DRAM row-buffer outcomes, and ResidentWarps gives the occupancy. The
// analytical models (internal/core) and the ground-truth timing simulator
// (internal/sim) both resolve and count through these functions, so where
// their counters differ they differ about cache or DRAM state (the models
// replay each per-SM cache space through one lockstep cache; the simulator
// keeps one per SM and times the DRAM), never about which counter an
// instruction increments.
package memsys

import (
	"math/bits"
	"slices"

	"gpuhms/internal/cache"
	"gpuhms/internal/dram"
	"gpuhms/internal/gpu"
	"gpuhms/internal/perf"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// Hierarchy holds the system-wide cache level (L2) and configuration.
type Hierarchy struct {
	Cfg *gpu.Config
	L2  *cache.Cache
}

// NewHierarchy builds the shared level of the memory hierarchy.
func NewHierarchy(cfg *gpu.Config) *Hierarchy {
	return &Hierarchy{
		Cfg: cfg,
		L2:  cache.New(cfg.L2),
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
// and each lane costs a multiply-add on its offset in the lane pattern; the
// shared tile wrap divides only for lanes beyond the first tile.
func (b *Binding) Addresses(in *trace.Inst, buf []uint64) []uint64 {
	id := in.Array
	arr := b.Trace.Array(id)
	rels := b.Trace.Patterns[in.Pattern].Rel
	eb := uint64(arr.Type.Bytes())
	out := buf[:0]
	switch b.Place.Of(id).Base() {
	case gpu.Shared:
		// Layout.SharedAddress with the tile length hoisted.
		off := b.Layout.SharedOff[id]
		elems := b.sharedElems(id)
		for _, rel := range rels {
			local := uint64(in.First + rel)
			if local >= elems {
				local %= elems
			}
			out = append(out, off+local*eb)
		}
	case gpu.Texture2D:
		base := b.Layout.Base[id]
		for _, rel := range rels {
			out = append(out, base+uint64(cache.Swizzle2D(in.First+rel, arr.Width, b.Tex2DShift))*eb)
		}
	default:
		first := b.Layout.Base[id] + uint64(in.First)*eb
		for _, rel := range rels {
			out = append(out, first+uint64(rel)*eb)
		}
	}
	return out
}

// sharedElems returns the length in elements of one block's shared tile of
// array id; element indices wrap modulo it.
func (b *Binding) sharedElems(id trace.ArrayID) uint64 {
	eb := uint64(b.Trace.Array(id).Type.Bytes())
	return max(uint64(placement.SharedFootprint(b.Trace, id))/eb, 1)
}

// Scratch holds the reusable per-caller state of ResolveScratch: resolved
// addresses, coalesced line sets, and the memo of resolved lane patterns.
// One Scratch serves one caller's whole replay loop; the zero value is ready
// to use and the buffers grow to the high-water mark of the trace.
type Scratch struct {
	addrs []uint64
	lines []uint64
	words []uint64
	memo  memo
}

// Reset empties the memo and forgets the trace it was filled for, keeping
// the storage: a pooled Scratch is reset before it is put away, so it pins
// no trace.
func (sc *Scratch) Reset() { sc.memo.reset(nil, nil) }

// memo caches resolutions by (lane pattern, base space, residue). Two
// accesses with the same pattern whose first lane's byte offset agrees
// modulo the line size L (for shared memory, modulo one row of banks) touch
// the same lines up to a shift: with off = q·L + r, every lane's line is
// ⌊(q·L + r + x)/L⌋ = q + ⌊(r + x)/L⌋ lines from zero. So they coalesce into
// the same transactions, conflict on the same banks and replay alike, and
// an entry keeps its lines relative to the aligned base q·L.
//
// Pattern ids are only meaningful within one trace and entries only under
// one geometry, so the memo empties whenever either changes.
type memo struct {
	tr      *trace.Trace
	cfg     *gpu.Config
	index   map[uint64]int32 // key → entries index; -1 when seen once
	entries []memoEntry
	lines   []uint64 // every entry's lines, relative to its aligned base
}

// memoEntry is one memoized resolution: the Resolved without Space and
// Lines, and its relative lines memo.lines[lo:hi].
type memoEntry struct {
	res    Resolved
	lo, hi int32
}

func (m *memo) reset(tr *trace.Trace, cfg *gpu.Config) {
	m.tr, m.cfg = tr, cfg
	clear(m.index)
	m.entries = m.entries[:0]
	m.lines = m.lines[:0]
}

// memoKey returns the memo key of an access and the aligned base its lines
// are relative to. ok is false when the access resolves lane by lane: a 2D
// texture (the swizzle is not a shift), a shared access whose lanes straddle
// a wrap of the tile, a warp with no active lane, or a pattern the trace uses
// once (there is nothing to reuse, which keeps irregular kernels off the
// memo).
func (h *Hierarchy) memoKey(b *Binding, in *trace.Inst, sp gpu.MemSpace) (key, base uint64, ok bool) {
	p := &b.Trace.Patterns[in.Pattern]
	if p.Uses < 2 || len(p.Rel) == 0 {
		return 0, 0, false
	}
	id := in.Array
	first := in.First
	var off uint64
	var span int
	switch sp.Base() {
	case gpu.Global:
		off, span = b.Layout.Base[id], h.Cfg.TransactionBytes
	case gpu.Constant:
		off, span = b.Layout.Base[id], h.Cfg.Constant.LineBytes
	case gpu.Texture1D:
		off, span = b.Layout.Base[id], h.Cfg.Texture.LineBytes
	case gpu.Shared:
		// Indices wrap modulo the tile length. Lanes within one tile period
		// q wrap alike, so the access is the unwrapped one at first − q·elems;
		// lanes straddling two periods resolve lane by lane.
		elems := int64(b.sharedElems(id))
		lo := first + p.MinRel
		q := lo / elems
		if lo < 0 || first+p.MaxRel >= (q+1)*elems {
			return 0, 0, false
		}
		first -= q * elems
		off, span = b.Layout.SharedOff[id], h.Cfg.SharedBanks*h.Cfg.SharedBankBytes
	default:
		return 0, 0, false
	}
	if span > 1<<24 {
		return 0, 0, false
	}
	off += uint64(first) * uint64(b.Trace.Array(id).Type.Bytes())
	r := off & uint64(span-1)
	return uint64(uint32(in.Pattern))<<32 | uint64(sp.Base())<<24 | r, off - r, true
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

	// The cache-independent replays, named after the perf.Events counters
	// they feed: global address divergence (cause (1): transactions − 1),
	// indexed-constant divergence (cause (3): distinct words − 1), shared
	// bank conflicts (cause (4): conflict degree − 1) and atomic address
	// conflicts (cause (6): most-contended address multiplicity − 1).
	// Constant-cache misses (cause (2)) are cache state and come from
	// ProbeLines.
	ReplayGlobalDiv int64
	ReplayConstDiv  int64
	ReplayShared    int64
	ReplayAtomic    int64

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
//
// An access whose lane pattern recurs is looked up in the Scratch's memo
// (see memo) and, on a miss, resolved lane by lane and recorded; the result
// is the same either way.
func (h *Hierarchy) ResolveScratch(b *Binding, in *trace.Inst, sc *Scratch) Resolved {
	sp := b.Place.Of(in.Array)
	key, base, memoize := h.memoKey(b, in, sp)
	if !memoize {
		return h.resolve(b, in, sp, sc)
	}
	m := &sc.memo
	if m.tr != b.Trace || m.cfg != h.Cfg {
		m.reset(b.Trace, h.Cfg)
	}
	e, seen := m.index[key]
	if seen && e >= 0 {
		ent := &m.entries[e]
		res := ent.res
		res.Space = sp
		if ent.hi > ent.lo {
			lines := sc.lines[:0]
			for _, ln := range m.lines[ent.lo:ent.hi] {
				lines = append(lines, base+ln)
			}
			sc.lines = lines
			res.Lines = lines
		}
		return res
	}
	res := h.resolve(b, in, sp, sc)
	if m.index == nil {
		m.index = make(map[uint64]int32)
	}
	if !seen {
		// A key is recorded on its second sighting: most keys of irregular
		// kernels never come back, and recording them would cost more than
		// the memo saves.
		m.index[key] = -1
		return res
	}
	ent := memoEntry{res: res, lo: int32(len(m.lines))}
	for _, ln := range res.Lines {
		m.lines = append(m.lines, ln-base)
	}
	ent.hi = int32(len(m.lines))
	ent.res.Lines = nil
	m.index[key] = int32(len(m.entries))
	m.entries = append(m.entries, ent)
	return res
}

// resolve is ResolveScratch lane by lane.
func (h *Hierarchy) resolve(b *Binding, in *trace.Inst, sp gpu.MemSpace, sc *Scratch) Resolved {
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
		res.ReplayAtomic = atomicConflicts(addrs)
	}

	switch sp.Base() {
	case gpu.Shared:
		res.Transactions = 1
		res.ReplayShared = int64(bankConflictDegree(addrs, h.Cfg.SharedBanks, h.Cfg.SharedBankBytes) - 1)

	case gpu.Global:
		lines := cache.LinesTouchedInto(sc.lines, addrs, h.Cfg.TransactionBytes)
		sc.lines = lines
		res.Transactions = len(lines)
		res.ReplayGlobalDiv = int64(len(lines) - 1)
		res.Lines = lines

	case gpu.Constant:
		// Constant memory serializes over distinct words; each distinct
		// word beyond the first is a divergence replay (cause 3). The
		// distinct constant-cache lines are what ProbeLines probes.
		words := cache.LinesTouchedInto(sc.words, addrs, b.Trace.Array(in.Array).Type.Bytes())
		sc.words = words
		res.ReplayConstDiv = int64(len(words) - 1)
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

// StaticReplays sums the cache-independent replays of the access: the issue
// slots it takes beyond its first, before any constant-cache miss.
func (r *Resolved) StaticReplays() int64 {
	return r.ReplayGlobalDiv + r.ReplayConstDiv + r.ReplayShared + r.ReplayAtomic
}

// atomicConflicts returns the replays of one warp atomic: lanes whose
// element addresses collide serialize, so the access issues once per
// occurrence of the most-contended address — the maximum address
// multiplicity minus one. The addresses are sorted in a stack copy, so the
// count allocates nothing (for warps of up to 64 lanes) and leaves addrs
// untouched.
func atomicConflicts(addrs []uint64) int64 {
	if len(addrs) == 0 {
		return 0
	}
	var buf [64]uint64
	sorted := append(buf[:0], addrs...)
	cache.SortSmall(sorted)
	most, run := 1, 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			run++
			most = max(most, run)
		} else {
			run = 1
		}
	}
	return int64(most - 1)
}

// bankConflictDegree returns the serialization degree of one shared-memory
// warp access over banks banks of bankBytes-wide words: the maximum, over
// banks, of the number of *distinct* words the lanes address in that bank.
// Lanes reading the same word broadcast and do not conflict. A
// conflict-free access has degree 1; an access with degree d replays d−1
// times.
//
// addrs holds the block-local byte addresses of the active lanes, at least
// one (ResolveScratch returns before it for a warp with none). banks and
// bankBytes must be powers of two (gpu.Config.Validate enforces it): words
// and banks are shifts and masks.
func bankConflictDegree(addrs []uint64, banks, bankBytes int) int {
	// The words of one warp fit a stack buffer: sort and dedup them there,
	// then count the distinct words per bank in a stack table. Nothing
	// escapes for warps of up to 64 lanes and 64 banks, so the per-access
	// cost is one short sort and no allocation.
	var wordBuf [64]uint64
	words := wordBuf[:0]
	shift := uint(bits.TrailingZeros64(uint64(bankBytes)))
	for _, a := range addrs {
		words = append(words, a>>shift)
	}
	cache.SortSmall(words)
	words = slices.Compact(words)
	var countBuf [64]uint16
	count := countBuf[:]
	if banks > len(countBuf) {
		count = make([]uint16, banks)
	}
	mask := uint64(banks - 1)
	degree := uint16(0)
	for _, w := range words {
		n := &count[w&mask]
		*n++
		degree = max(degree, *n)
	}
	return int(degree)
}

// CountCompute adds one non-memory instruction record — in.Count warp
// instructions of one op class — to ev and returns the issue slots it
// takes: one per instruction, two for double precision (two-cycle issue),
// one for a barrier. Integer instructions also count into InstInteger.
func CountCompute(ev *perf.Events, in *trace.Inst) int64 {
	n := int64(in.Count)
	slots := n
	if in.Op == trace.OpFP64 {
		slots *= 2
	}
	ev.InstExecuted += n
	ev.InstIssued += n
	ev.IssueSlots += slots
	if in.Op == trace.OpInt {
		ev.InstInteger += n
	}
	return slots
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
	static := r.StaticReplays()
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
	ev.ReplayGlobalDiv += r.ReplayGlobalDiv
	ev.ReplayConstDiv += r.ReplayConstDiv
	ev.ReplayShared += r.ReplayShared
	ev.ReplayAtomic += r.ReplayAtomic
	ev.SharedBankConflicts += r.ReplayShared
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
