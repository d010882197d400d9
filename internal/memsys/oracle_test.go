package memsys

import (
	"math/rand"
	"slices"
	"testing"

	"gpuhms/internal/cache"
	"gpuhms/internal/gpu"
	"gpuhms/internal/placement"
	"gpuhms/internal/replay"
	"gpuhms/internal/sharedmem"
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
	for _, ix := range in.Index {
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
func refConflictDegree(c sharedmem.Config, addrs []uint64) int {
	type bankWords struct {
		words [4]uint64
		n     int
		over  map[uint64]struct{}
	}
	banks := make([]bankWords, c.Banks)
	degree := 0
	for _, a := range addrs {
		word := a / uint64(c.BankBytes)
		bw := &banks[int(word%uint64(c.Banks))]
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
		res.Replays.Add(replay.AtomicConflict, refAtomicConflictReplays(addrs))
	}
	switch sp.Base() {
	case gpu.Shared:
		res.Transactions = 1
		conflicts := int64(refConflictDegree(h.Sh, addrs) - 1)
		res.SharedConflicts = int(conflicts)
		res.Replays.Add(replay.SharedBankConflict, conflicts)
	case gpu.Global:
		res.Lines = refLinesTouched(addrs, h.Cfg.TransactionBytes)
		res.Transactions = len(res.Lines)
		res.Replays.Add(replay.GlobalDivergence, int64(len(res.Lines)-1))
	case gpu.Constant:
		words := refLinesTouched(addrs, b.Trace.Array(in.Array).Type.Bytes())
		res.Replays.Add(replay.ConstantDivergence, int64(len(words)-1))
		res.Lines = refLinesTouched(addrs, h.Cfg.Constant.LineBytes)
		res.Transactions = len(words)
	case gpu.Texture1D, gpu.Texture2D:
		res.Lines = refLinesTouched(addrs, h.Cfg.Texture.LineBytes)
		res.Transactions = len(res.Lines)
	}
	return res
}

// refAccess is AccessScratch built from the reference pieces: the
// resolution above, then each line probed through the caches in order.
func refAccess(h *Hierarchy, sm *SMCaches, b *Binding, in *trace.Inst) Result {
	r := refResolve(h, b, in)
	res := Result{
		Space:           r.Space,
		Store:           in.Op != trace.OpLoad,
		Transactions:    r.Transactions,
		Replays:         r.Replays,
		SharedConflicts: r.SharedConflicts,
	}
	l2 := func(ln uint64) {
		res.L2Accesses++
		if !h.L2.Access(ln) {
			res.L2Misses++
			res.DRAMLines = append(res.DRAMLines, ln)
		}
	}
	for _, ln := range r.Lines {
		switch r.Space.Base() {
		case gpu.Global:
			l2(ln)
		case gpu.Constant:
			res.ConstAccesses++
			if !sm.Const.Access(ln) {
				res.ConstMiss++
				res.Replays.Add(replay.ConstantMiss, 1)
				l2(ln)
			}
		case gpu.Texture1D, gpu.Texture2D:
			res.TexAccesses++
			if !sm.Tex.Access(ln) {
				res.TexMiss++
				l2(ln)
			}
		}
	}
	return res
}

// sameResult compares two Results field by field, DRAM lines by content.
func sameResult(a, b Result) bool {
	dramA, dramB := a.DRAMLines, b.DRAMLines
	a.DRAMLines, b.DRAMLines = nil, nil
	return a.Space == b.Space && a.Store == b.Store && a.Transactions == b.Transactions &&
		a.Replays == b.Replays && a.L2Accesses == b.L2Accesses && a.L2Misses == b.L2Misses &&
		a.ConstAccesses == b.ConstAccesses && a.ConstMiss == b.ConstMiss &&
		a.TexAccesses == b.TexAccesses && a.TexMiss == b.TexMiss &&
		a.SharedConflicts == b.SharedConflicts && slices.Equal(dramA, dramB)
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
// width > 0) with a mix of loads, stores and atomics.
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
		switch r.Intn(3) {
		case 0:
			w.Load(id, idx)
		case 1:
			w.Store(id, idx)
		default:
			w.Atomic(id, idx)
		}
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// FuzzResolveMatchesReference pins the optimized resolution kernel —
// hoisted addressing, masked coalescing, sort-based bank and atomic counts —
// to the reference per-lane implementation: on every registered arch and
// every memory space (remote spaces and 2D textures included), ResolveScratch
// and AccessScratch must return exactly what the reference returns, with the
// caches evolving identically across a sequence of accesses.
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
		for _, sp := range gpu.Spaces {
			target := placement.New(1)
			target.Spaces[0] = sp
			b := NewBinding(cfg, tr, sample, layout, target)
			h, hRef := NewHierarchy(cfg), NewHierarchy(cfg)
			sm, smRef := NewSMCaches(cfg), NewSMCaches(cfg)
			var sc, scAcc Scratch
			for i := range tr.Warps[0].Inst {
				in := &tr.Warps[0].Inst[i]
				got, want := h.ResolveScratch(b, in, &sc), refResolve(hRef, b, in)
				if got.Space != want.Space || got.Transactions != want.Transactions ||
					got.Replays != want.Replays || got.SharedConflicts != want.SharedConflicts ||
					!slices.Equal(got.Lines, want.Lines) {
					t.Fatalf("%s %s inst %d: ResolveScratch = %+v, reference %+v (lanes %v)",
						cfg.Name, sp, i, got, want, in.Index)
				}
				gotA, wantA := h.AccessScratch(sm, b, in, &scAcc), refAccess(hRef, smRef, b, in)
				if !sameResult(gotA, wantA) {
					t.Fatalf("%s %s inst %d: AccessScratch = %+v, reference %+v (lanes %v)",
						cfg.Name, sp, i, gotA, wantA, in.Index)
				}
			}
		}
	})
}

// TestResolveAllocFree pins the AccessScratch promise: once a Scratch has
// grown, resolving a warp access allocates nothing — for global, constant,
// both texture flavours and shared placements, and for atomics (which add
// the same-address count on top).
func TestResolveAllocFree(t *testing.T) {
	cfg := gpu.KeplerK80()
	launch := trace.Launch{Blocks: 4, ThreadsPerBlock: 32, WarpSize: 32}
	bld := trace.NewBuilder("allocs", launch)
	id := bld.DeclareArray(trace.Array{Name: "a", Type: trace.F32, Len: 1 << 12, Width: 64})
	r := rand.New(rand.NewSource(1))
	bld.Warp(0, 0).
		LoadCoalesced(id, 0, 32).
		LoadStrided(id, 0, 33, 32).
		Load(id, oracleLanes(r, 32, 1<<12, 1<<10, 1, 0.2)).
		Atomic(id, oracleLanes(r, 32, 1<<12, 1<<10, 3, 0))
	tr := bld.MustBuild()
	sample := placement.New(1)
	layout := placement.NewLayout(tr, sample)
	for _, sp := range []gpu.MemSpace{gpu.Global, gpu.Constant, gpu.Texture1D, gpu.Texture2D, gpu.Shared} {
		target := placement.New(1)
		target.Spaces[0] = sp
		b := NewBinding(cfg, tr, sample, layout, target)
		h, sm := NewHierarchy(cfg), NewSMCaches(cfg)
		var sc Scratch
		for i := range tr.Warps[0].Inst {
			in := &tr.Warps[0].Inst[i]
			h.AccessScratch(sm, b, in, &sc) // grow the buffers
			if n := testing.AllocsPerRun(50, func() { h.ResolveScratch(b, in, &sc) }); n != 0 {
				t.Errorf("%s inst %d (%s): ResolveScratch allocates %.1f objects per call", sp, i, in.Op, n)
			}
			if n := testing.AllocsPerRun(50, func() { h.AccessScratch(sm, b, in, &sc) }); n != 0 {
				t.Errorf("%s inst %d (%s): AccessScratch allocates %.1f objects per call", sp, i, in.Op, n)
			}
		}
	}
}
