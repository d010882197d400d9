package memsys

import (
	"math/rand"
	"slices"
	"testing"

	"gpuhms/internal/addrmode"
	"gpuhms/internal/cache"
	"gpuhms/internal/gpu"
	"gpuhms/internal/perf"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// This file keeps the straightforward per-lane resolution — a space switch
// and a shared-tile recomputation per lane, a divide and an insertion sort
// per coalescing, a bank table per conflict count, a map per atomic — as the
// reference the optimized kernel must reproduce bit for bit.

// refAddresses resolves lanes one at a time through the layout's own
// per-element address functions.
func refAddresses(b *Binding, in *trace.Inst) []uint64 {
	sp := b.Place.Of(in.Array)
	arr := b.Trace.Array(in.Array)
	var out []uint64
	for _, ix := range b.Trace.Lanes(in, nil) {
		if ix == trace.Inactive {
			continue
		}
		switch sp.Base() {
		case gpu.Shared:
			out = append(out, b.Layout.SharedAddress(b.Trace, in.Array, ix))
		case gpu.Texture2D:
			sw := cache.Swizzle2D(ix, arr.Width, b.Tex2DShift)
			out = append(out, b.Layout.Base[in.Array]+uint64(sw)*uint64(arr.Type.Bytes()))
		default:
			out = append(out, b.Layout.Address(b.Trace, in.Array, ix))
		}
	}
	return out
}

// refLinesTouched coalesces by division, insertion sort and dedup.
func refLinesTouched(addrs []uint64, lineBytes int) []uint64 {
	var out []uint64
	if len(addrs) == 0 {
		return out
	}
	lb := uint64(lineBytes)
	for _, a := range addrs {
		out = append(out, a/lb*lb)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// refConflictDegree counts distinct words per bank in a per-call bank table
// with a map overflow.
func refConflictDegree(banks, bankBytes int, addrs []uint64) int {
	type bankWords struct {
		words [4]uint64
		n     int
		over  map[uint64]struct{}
	}
	table := make([]bankWords, banks)
	degree := 0
	for _, a := range addrs {
		word := a / uint64(bankBytes)
		bw := &table[int(word%uint64(banks))]
		dup := false
		for j := 0; j < bw.n && j < len(bw.words); j++ {
			if bw.words[j] == word {
				dup = true
				break
			}
		}
		if !dup && bw.over != nil {
			_, dup = bw.over[word]
		}
		if dup {
			continue
		}
		if bw.n < len(bw.words) {
			bw.words[bw.n] = word
		} else {
			if bw.over == nil {
				bw.over = make(map[uint64]struct{})
			}
			bw.over[word] = struct{}{}
		}
		bw.n++
		if bw.n > degree {
			degree = bw.n
		}
	}
	if degree == 0 {
		return 1
	}
	return degree
}

// refAtomicConflictReplays counts address multiplicities in a map.
func refAtomicConflictReplays(addrs []uint64) int64 {
	if len(addrs) == 0 {
		return 0
	}
	counts := make(map[uint64]int, len(addrs))
	max := 0
	for _, a := range addrs {
		counts[a]++
		if counts[a] > max {
			max = counts[a]
		}
	}
	return int64(max - 1)
}

// refResolve is ResolveScratch built from the reference pieces.
func refResolve(h *Hierarchy, b *Binding, in *trace.Inst) Resolved {
	sp := b.Place.Of(in.Array)
	res := Resolved{Space: sp}
	addrs := refAddresses(b, in)
	if len(addrs) == 0 {
		res.Transactions = 1
		return res
	}
	if in.Op == trace.OpAtomic {
		res.ReplayAtomic = refAtomicConflictReplays(addrs)
	}
	switch sp.Base() {
	case gpu.Shared:
		res.Transactions = 1
		res.ReplayShared = int64(refConflictDegree(h.Cfg.SharedBanks, h.Cfg.SharedBankBytes, addrs) - 1)
	case gpu.Global:
		res.Lines = refLinesTouched(addrs, h.Cfg.TransactionBytes)
		res.Transactions = len(res.Lines)
		res.ReplayGlobalDiv = int64(len(res.Lines) - 1)
	case gpu.Constant:
		words := refLinesTouched(addrs, b.Trace.Array(in.Array).Type.Bytes())
		res.ReplayConstDiv = int64(len(words) - 1)
		res.Lines = refLinesTouched(addrs, h.Cfg.Constant.LineBytes)
		res.Transactions = len(words)
	case gpu.Texture1D, gpu.Texture2D:
		res.Lines = refLinesTouched(addrs, h.Cfg.Texture.LineBytes)
		res.Transactions = len(res.Lines)
	}
	return res
}

// refAccess is one access's events and DRAM lines built from the reference
// pieces without the shared counters: the resolution above, each line probed
// through the caches in order, and every perf.Events counter written out
// here, so the oracle never checks CountEvents against itself.
func refAccess(h *Hierarchy, sm *SMCaches, b *Binding, in *trace.Inst) (perf.Events, []uint64) {
	r := refResolve(h, b, in)
	var ev perf.Events
	var dram []uint64
	// The instruction and its static replays, summed here rather than by
	// StaticReplays.
	issued := 1 + r.ReplayGlobalDiv + r.ReplayConstDiv + r.ReplayShared + r.ReplayAtomic
	l2 := func(ln uint64) {
		ev.L2Transactions++
		if !h.L2.Access(ln) {
			ev.L2Misses++
			dram = append(dram, ln)
		}
	}
	switch r.Space.Base() {
	case gpu.Global:
		ev.GlobalRequests++
		for _, ln := range r.Lines {
			l2(ln)
		}
	case gpu.Constant:
		ev.ConstantRequest++
		for _, ln := range r.Lines {
			ev.ConstAccesses++
			if !sm.Const.Access(ln) {
				ev.ConstMisses++
				ev.ReplayConstMiss++
				issued++
				l2(ln)
			}
		}
	case gpu.Texture1D, gpu.Texture2D:
		ev.TextureRequests++
		for _, ln := range r.Lines {
			ev.TexAccesses++
			if !sm.Tex.Access(ln) {
				ev.TexMisses++
				l2(ln)
			}
		}
	case gpu.Shared:
		ev.SharedRequests++
	}
	ev.ReplayGlobalDiv = r.ReplayGlobalDiv
	ev.ReplayConstDiv = r.ReplayConstDiv
	ev.ReplayShared = r.ReplayShared
	ev.ReplayAtomic = r.ReplayAtomic
	ev.SharedBankConflicts = r.ReplayShared

	// The addressing-mode preamble: k integer instructions before the access.
	k := int64(addrmode.InstrPerAccess(r.Space, b.Trace.Array(in.Array).Type))
	ev.InstExecuted = k + 1
	ev.InstInteger = k
	ev.InstIssued = k + issued
	ev.IssueSlots = k + issued
	ev.LdstIssued = issued
	return ev, dram
}

// countAccess resolves one instruction with the optimized kernel, probes its
// lines into dram, and counts it through the shared counters.
func countAccess(h *Hierarchy, sm *SMCaches, b *Binding, in *trace.Inst, sc *Scratch, dram []uint64, ev *perf.Events) []uint64 {
	r := h.ResolveScratch(b, in, sc)
	pc, dram := h.ProbeLines(sm, r.Space, r.Lines, dram[:0])
	r.CountEvents(ev, int64(addrmode.InstrPerAccess(r.Space, b.Trace.Array(in.Array).Type)))
	pc.CountEvents(ev)
	return dram
}

// oracleLanes draws one warp's lane indices into [0, n): pattern selects
// coalesced, random (unsorted), broadcast, few-distinct (duplicates),
// descending or strided lanes, or lanes on the edges of the shared tile
// (tile elements long), and every lane is Inactive with probability
// pInactive.
func oracleLanes(r *rand.Rand, warp int, n, tile int64, pattern int, pInactive float64) []int64 {
	idx := make([]int64, warp)
	base := r.Int63n(n)
	stride := 1 + r.Int63n(64)
	for l := range idx {
		var ix int64
		switch pattern % oraclePatterns {
		case 0:
			ix = base + int64(l)
		case 1:
			ix = r.Int63n(n)
		case 2:
			ix = base
		case 3:
			ix = base + r.Int63n(3)*stride
		case 4:
			ix = base - int64(l)*stride
		case 5:
			ix = base + int64(l)*stride
		case 6:
			ix = r.Int63n(n/tile+1)*tile + r.Int63n(3) - 1
		}
		idx[l] = ((ix % n) + n) % n
		if r.Float64() < pInactive {
			idx[l] = trace.Inactive
		}
	}
	return idx
}

// oraclePatterns is the number of lane patterns oracleLanes draws from.
const oraclePatterns = 7

// oracleTrace builds a one-warp trace over a 1-, 4- or 8-byte array (2D when
// width > 0) with a mix of loads, stores and atomics. Each drawn lane shape
// is emitted by one op at several positions — as drawn, one element over, a
// random shift, that shift plus 1024 elements (a whole number of lines and
// bank rows, so the same residue) and one shared tile over — so the
// resolution memo sees every pattern at distinct residues, at a repeated
// residue, and in more than one period of the shared tile.
func oracleTrace(t *testing.T, seed int64, elem trace.DType, pattern int) *trace.Trace {
	r := rand.New(rand.NewSource(seed))
	launch := trace.Launch{Blocks: 1 + r.Intn(16), ThreadsPerBlock: 32, WarpSize: 32}
	b := trace.NewBuilder("oracle", launch)
	n := 64 + r.Intn(1<<14)
	width := 0
	if r.Intn(2) == 0 {
		width = 1 + r.Intn(n)
	}
	arr := trace.Array{Name: "a", Type: elem, Len: n, Width: width}
	id := b.DeclareArray(arr)
	tile := int64(placement.SharedFootprint(&trace.Trace{Launch: launch, Arrays: []trace.Array{arr}}, id) / elem.Bytes())
	w := b.Warp(0, 0)
	pInactive := []float64{0, 0.1, 0.5, 1}[r.Intn(4)]
	for i := 0; i < 12; i++ {
		idx := oracleLanes(r, launch.WarpSize, int64(n), tile, pattern+r.Intn(2)*r.Intn(oraclePatterns), pInactive)
		emit := []func(trace.ArrayID, []int64) *trace.WarpBuilder{w.Load, w.Store, w.Atomic}[r.Intn(3)]
		lo, hi := int64(n), int64(-1)
		for _, ix := range idx {
			if ix != trace.Inactive {
				lo, hi = min(lo, ix), max(hi, ix)
			}
		}
		shift := r.Int63n(int64(n)) - lo
		for _, s := range []int64{0, 1, shift, shift + 1024, tile} {
			if hi >= 0 && (lo+s < 0 || hi+s >= int64(n)) {
				continue
			}
			moved := make([]int64, len(idx))
			for l, ix := range idx {
				moved[l] = ix
				if ix != trace.Inactive {
					moved[l] = ix + s
				}
			}
			emit(id, moved)
		}
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// FuzzResolveMatchesReference pins the optimized resolution kernel —
// hoisted addressing, masked coalescing, sort-based bank and atomic counts,
// the memo of resolved lane patterns — to the reference per-lane
// implementation: on every registered arch and every memory space (remote
// spaces and 2D textures included), ResolveScratch must return exactly what
// the reference returns, and ResolveScratch + ProbeLines + the shared
// counters must add exactly the events and DRAM lines the hand-counted
// reference does, with the caches evolving identically across a sequence of
// accesses. One Scratch serves every space, so memo entries of one space are
// live while another is resolved.
func FuzzResolveMatchesReference(f *testing.F) {
	for arch := range gpu.Names() {
		for elem := 0; elem < 3; elem++ {
			for pattern := 0; pattern < oraclePatterns; pattern++ {
				f.Add(int64(arch*100+elem*10+pattern), uint8(arch), uint8(elem), uint8(pattern))
			}
		}
	}
	names := gpu.Names()
	f.Fuzz(func(t *testing.T, seed int64, arch, elem, pattern uint8) {
		cfg := gpu.MustLookup(names[int(arch)%len(names)])
		dtype := []trace.DType{trace.U8, trace.F32, trace.F64}[int(elem)%3]
		tr := oracleTrace(t, seed, dtype, int(pattern))
		sample := placement.New(1)
		layout := placement.NewLayout(tr, sample)
		var sc, scAcc Scratch
		for _, sp := range gpu.Spaces {
			target := placement.New(1)
			target.Spaces[0] = sp
			b := NewBinding(cfg, tr, sample, layout, target)
			h, hRef := NewHierarchy(cfg), NewHierarchy(cfg)
			sm, smRef := NewSMCaches(cfg), NewSMCaches(cfg)
			var dram []uint64
			for i := range tr.Warps[0].Inst {
				in := &tr.Warps[0].Inst[i]
				got, want := h.ResolveScratch(b, in, &sc), refResolve(hRef, b, in)
				if got.Space != want.Space || got.Transactions != want.Transactions ||
					got.ReplayGlobalDiv != want.ReplayGlobalDiv || got.ReplayConstDiv != want.ReplayConstDiv ||
					got.ReplayShared != want.ReplayShared || got.ReplayAtomic != want.ReplayAtomic ||
					!slices.Equal(got.Lines, want.Lines) {
					t.Fatalf("%s %s inst %d: ResolveScratch = %+v, reference %+v (lanes %v)",
						cfg.Name, sp, i, got, want, tr.Lanes(in, nil))
				}
				var ev perf.Events
				dram = countAccess(h, sm, b, in, &scAcc, dram, &ev)
				wantEv, wantDRAM := refAccess(hRef, smRef, b, in)
				if ev != wantEv || !slices.Equal(dram, wantDRAM) {
					t.Fatalf("%s %s inst %d: counted %+v DRAM %v, reference %+v DRAM %v (lanes %v)",
						cfg.Name, sp, i, ev, dram, wantEv, wantDRAM, tr.Lanes(in, nil))
				}
			}
		}
	})
}

// TestResolveAllocFree pins the Scratch promise: once a Scratch and the
// DRAM line buffer have grown, resolving, probing and counting a warp access
// allocates nothing — for global, constant, both texture flavours and shared
// placements, for atomics (which add the same-address count on top), and for
// accesses served from the memo (lane patterns the warp repeats).
func TestResolveAllocFree(t *testing.T) {
	cfg := gpu.KeplerK80()
	launch := trace.Launch{Blocks: 4, ThreadsPerBlock: 32, WarpSize: 32}
	bld := trace.NewBuilder("allocs", launch)
	id := bld.DeclareArray(trace.Array{Name: "a", Type: trace.F32, Len: 1 << 12, Width: 64})
	r := rand.New(rand.NewSource(1))
	atomic := oracleLanes(r, 32, 1<<12, 1<<10, 3, 0)
	bld.Warp(0, 0).
		LoadCoalesced(id, 0, 32).
		LoadStrided(id, 0, 33, 32).
		Load(id, oracleLanes(r, 32, 1<<12, 1<<10, 1, 0.2)).
		Atomic(id, atomic).
		LoadCoalesced(id, 64, 32).
		Atomic(id, atomic)
	tr := bld.MustBuild()
	sample := placement.New(1)
	layout := placement.NewLayout(tr, sample)
	for _, sp := range []gpu.MemSpace{gpu.Global, gpu.Constant, gpu.Texture1D, gpu.Texture2D, gpu.Shared} {
		target := placement.New(1)
		target.Spaces[0] = sp
		b := NewBinding(cfg, tr, sample, layout, target)
		h, sm := NewHierarchy(cfg), NewSMCaches(cfg)
		var sc Scratch
		var dram []uint64
		var ev perf.Events
		for i := range tr.Warps[0].Inst {
			in := &tr.Warps[0].Inst[i]
			dram = countAccess(h, sm, b, in, &sc, dram, &ev) // grow the buffers
			if n := testing.AllocsPerRun(50, func() { h.ResolveScratch(b, in, &sc) }); n != 0 {
				t.Errorf("%s inst %d (%s): ResolveScratch allocates %.1f objects per call", sp, i, in.Op, n)
			}
			if n := testing.AllocsPerRun(50, func() { dram = countAccess(h, sm, b, in, &sc, dram, &ev) }); n != 0 {
				t.Errorf("%s inst %d (%s): resolve, probe and count allocate %.1f objects per call", sp, i, in.Op, n)
			}
		}
	}
}
