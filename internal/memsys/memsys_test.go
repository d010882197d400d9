package memsys

import (
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/perf"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// buildKernel returns a trace with one array and a single configurable
// memory instruction per pattern.
func buildKernel(t *testing.T, arr trace.Array, emit func(*trace.WarpBuilder, trace.ArrayID)) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder("k", trace.Launch{Blocks: 4, ThreadsPerBlock: 32, WarpSize: 32})
	id := b.DeclareArray(arr)
	emit(b.Warp(0, 0), id)
	return b.MustBuild()
}

func bind(cfg *gpu.Config, tr *trace.Trace, spec string) (*Binding, error) {
	sample := placement.New(len(tr.Arrays))
	target, err := placement.Parse(tr, spec)
	if err != nil {
		return nil, err
	}
	layout := placement.NewLayout(tr, sample)
	return NewBinding(cfg, tr, sample, layout, target), nil
}

// accessResult is one warp access's memory-system outcome as the tests
// below assert it: the resolution, the events the access adds to
// perf.Events (Events, whose replay counters the tests read), and the DRAM
// lines its probe forwards.
type accessResult struct {
	Space                    gpu.MemSpace
	Store                    bool
	Transactions             int
	Events                   perf.Events
	L2Accesses, L2Misses     int
	ConstAccesses, ConstMiss int
	TexAccesses, TexMiss     int
	SharedConflicts          int
	DRAMLines                []uint64
}

// access resolves one instruction, probes its lines through the hierarchy's
// caches, and reads the outcome back from the events the two counting
// halves add.
func access(h *Hierarchy, sm *SMCaches, b *Binding, in *trace.Inst) accessResult {
	var sc Scratch
	r := h.ResolveScratch(b, in, &sc)
	pc, dram := h.ProbeLines(sm, r.Space, r.Lines, nil)
	var ev perf.Events
	r.CountEvents(&ev, 0)
	pc.CountEvents(&ev)
	res := accessResult{
		Space:           r.Space,
		Store:           in.Op != trace.OpLoad,
		Transactions:    r.Transactions,
		L2Accesses:      int(ev.L2Transactions),
		L2Misses:        int(ev.L2Misses),
		ConstAccesses:   int(ev.ConstAccesses),
		ConstMiss:       int(ev.ConstMisses),
		TexAccesses:     int(ev.TexAccesses),
		TexMiss:         int(ev.TexMisses),
		SharedConflicts: int(ev.SharedBankConflicts),
		DRAMLines:       dram,
		Events:          ev,
	}
	return res
}

func TestGlobalCoalescedAccess(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := buildKernel(t, trace.Array{Name: "a", Type: trace.F32, Len: 4096, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) { w.LoadCoalesced(id, 0, 32) })
	b, err := bind(cfg, tr, "")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)
	res := access(h, sm, b, &tr.Warps[0].Inst[0])

	if res.Space != gpu.Global || res.Store {
		t.Errorf("space/store: %v %v", res.Space, res.Store)
	}
	if res.Transactions != 1 {
		t.Errorf("coalesced 32×4B should be 1 transaction, got %d", res.Transactions)
	}
	if n := res.Events.TotalReplays(); n != 0 {
		t.Errorf("replays = %d", n)
	}
	if res.L2Accesses != 1 || res.L2Misses != 1 {
		t.Errorf("L2: %d/%d", res.L2Accesses, res.L2Misses)
	}
	if len(res.DRAMLines) != 1 {
		t.Errorf("DRAM lines = %d", len(res.DRAMLines))
	}
}

func TestGlobalDivergentAccess(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := buildKernel(t, trace.Array{Name: "a", Type: trace.F32, Len: 1 << 16, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) {
			w.LoadStrided(id, 0, 32, 32) // lanes 128B apart → 32 lines
		})
	b, _ := bind(cfg, tr, "")
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)
	res := access(h, sm, b, &tr.Warps[0].Inst[0])
	if res.Transactions != 32 {
		t.Errorf("transactions = %d", res.Transactions)
	}
	if got := res.Events.ReplayGlobalDiv; got != 31 {
		t.Errorf("divergence replays = %d", got)
	}
}

func TestConstantBroadcastVsDivergent(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := buildKernel(t, trace.Array{Name: "c", Type: trace.F32, Len: 1024, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) {
			w.LoadBroadcast(id, 5, 32)
			w.LoadStrided(id, 0, 1, 32) // 32 distinct words
		})
	b, _ := bind(cfg, tr, "c:C")
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)

	bc := access(h, sm, b, &tr.Warps[0].Inst[0])
	if bc.Events.ReplayConstDiv != 0 {
		t.Errorf("broadcast divergence replays = %d", bc.Events.ReplayConstDiv)
	}
	if bc.ConstAccesses == 0 || bc.ConstMiss == 0 {
		t.Errorf("cold constant access: %d/%d", bc.ConstAccesses, bc.ConstMiss)
	}
	if bc.Events.ReplayConstMiss != int64(bc.ConstMiss) {
		t.Error("each constant-cache miss is one replay (cause 2)")
	}

	dv := access(h, sm, b, &tr.Warps[0].Inst[1])
	if got := dv.Events.ReplayConstDiv; got != 31 {
		t.Errorf("divergent constant replays = %d", got)
	}
}

func TestSharedConflicts(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := buildKernel(t, trace.Array{Name: "s", Type: trace.F32, Len: 4096},
		func(w *trace.WarpBuilder, id trace.ArrayID) {
			w.LoadStrided(id, 0, 32, 32) // stride 32 words → 32-way conflict
		})
	b, _ := bind(cfg, tr, "s:S")
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)
	res := access(h, sm, b, &tr.Warps[0].Inst[0])
	if res.Space != gpu.Shared {
		t.Fatalf("space = %v", res.Space)
	}
	// 4096 floats over 4 blocks = 1024-element tile; lanes at stride 32
	// within the tile hit the same bank.
	if res.SharedConflicts != 31 {
		t.Errorf("shared conflicts = %d", res.SharedConflicts)
	}
	if len(res.DRAMLines) != 0 || res.L2Accesses != 0 {
		t.Error("shared accesses must not reach L2/DRAM")
	}
}

func TestTextureCachePath(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := buildKernel(t, trace.Array{Name: "x", Type: trace.F32, Len: 4096, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) {
			w.LoadCoalesced(id, 0, 32)
			w.LoadCoalesced(id, 0, 32) // repeat: tex hit, no L2 traffic
		})
	b, _ := bind(cfg, tr, "x:T")
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)
	first := access(h, sm, b, &tr.Warps[0].Inst[0])
	if first.TexAccesses != 1 || first.TexMiss != 1 || first.L2Accesses != 1 {
		t.Errorf("cold texture: %+v", first)
	}
	second := access(h, sm, b, &tr.Warps[0].Inst[1])
	if second.TexMiss != 0 || second.L2Accesses != 0 || len(second.DRAMLines) != 0 {
		t.Errorf("warm texture should stay in the tex cache: %+v", second)
	}
}

func TestTexture2DSwizzleChangesLines(t *testing.T) {
	cfg := gpu.KeplerK80()
	// A column access (stride = width): 1D placement touches 32 lines; the
	// 2D tiled layout packs 16-row tiles → fewer lines.
	const width = 64
	tr := buildKernel(t, trace.Array{Name: "m", Type: trace.F32, Len: width * 64, Width: width, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) {
			w.LoadStrided(id, 0, width, 32)
			w.LoadStrided(id, 0, width, 32)
		})
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)

	b1, _ := bind(cfg, tr, "m:T")
	lin := access(h, sm, b1, &tr.Warps[0].Inst[0])
	b2, _ := bind(cfg, tr, "m:2T")
	sw := access(h, sm, b2, &tr.Warps[0].Inst[1])
	if sw.Transactions >= lin.Transactions {
		t.Errorf("2D swizzle should reduce column-access lines: %d vs %d",
			sw.Transactions, lin.Transactions)
	}
}

func TestL2SharedAcrossSpaces(t *testing.T) {
	cfg := gpu.KeplerK80()
	// The same DRAM lines fetched via global then via texture: the second
	// fetch hits in L2 (texture, constant, and global share the L2).
	b := trace.NewBuilder("k", trace.Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	g := b.DeclareArray(trace.Array{Name: "g", Type: trace.F32, Len: 1024, ReadOnly: true})
	wb := b.Warp(0, 0)
	wb.LoadCoalesced(g, 0, 32)
	wb.LoadCoalesced(g, 0, 32)
	tr := b.MustBuild()

	// First access in global placement fills L2.
	sample := placement.New(1)
	layout := placement.NewLayout(tr, sample)
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)
	bG := NewBinding(cfg, tr, sample, layout, sample)
	access(h, sm, bG, &tr.Warps[0].Inst[0])

	// Second access via texture (same addresses: off-chip → off-chip keeps
	// the address, §III-E): tex misses but L2 hits → no DRAM.
	target, _ := placement.Parse(tr, "g:T")
	bT := NewBinding(cfg, tr, sample, layout, target)
	res := access(h, sm, bT, &tr.Warps[0].Inst[1])
	if res.TexMiss != 1 {
		t.Errorf("tex miss = %d", res.TexMiss)
	}
	if res.L2Misses != 0 || len(res.DRAMLines) != 0 {
		t.Errorf("texture fill should hit shared L2: %+v", res)
	}
}

func TestInactiveLanesProduceNoAddresses(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := buildKernel(t, trace.Array{Name: "a", Type: trace.F32, Len: 64, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) {
			idx := make([]int64, 32)
			for i := range idx {
				idx[i] = trace.Inactive
			}
			w.Load(id, idx)
		})
	b, _ := bind(cfg, tr, "")
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)
	res := access(h, sm, b, &tr.Warps[0].Inst[0])
	if res.Transactions != 1 || res.L2Accesses != 0 {
		t.Errorf("fully-masked access: %+v", res)
	}
}

func TestHierarchyReset(t *testing.T) {
	cfg := gpu.KeplerK80()
	h := NewHierarchy(cfg)
	tr := buildKernel(t, trace.Array{Name: "a", Type: trace.F32, Len: 64, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) { w.LoadCoalesced(id, 0, 32) })
	b, _ := bind(cfg, tr, "")
	sm := NewSMCaches(cfg)
	if res := access(h, sm, b, &tr.Warps[0].Inst[0]); res.L2Misses != 1 {
		t.Fatalf("cold L2 misses = %d", res.L2Misses)
	}
	if res := access(h, sm, b, &tr.Warps[0].Inst[0]); res.L2Misses != 0 {
		t.Fatalf("warm L2 misses = %d", res.L2Misses)
	}
	h.Reset()
	if res := access(h, sm, b, &tr.Warps[0].Inst[0]); res.L2Misses != 1 {
		t.Error("reset must clear the L2")
	}
}
