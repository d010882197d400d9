package placement

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/trace"
)

func testTrace(t *testing.T) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder("k", trace.Launch{Blocks: 8, ThreadsPerBlock: 64, WarpSize: 32})
	in := b.DeclareArray(trace.Array{Name: "in", Type: trace.F32, Len: 512, Width: 32, ReadOnly: true})
	w := b.DeclareArray(trace.Array{Name: "w", Type: trace.F32, Len: 128, ReadOnly: true})
	out := b.DeclareArray(trace.Array{Name: "out", Type: trace.F32, Len: 512})
	for blk := 0; blk < 8; blk++ {
		wb := b.Warp(blk, 0)
		wb.LoadCoalesced(in, int64(blk*64), 32)
		wb.LoadBroadcast(w, 3, 32)
		wb.FP32(1)
		wb.StoreCoalesced(out, int64(blk*64), 32)
	}
	return b.MustBuild()
}

func TestParseAndFormat(t *testing.T) {
	tr := testTrace(t)
	p, err := Parse(tr, "in:T, w:C")
	if err != nil {
		t.Fatal(err)
	}
	if p.Of(0) != gpu.Texture1D || p.Of(1) != gpu.Constant || p.Of(2) != gpu.Global {
		t.Errorf("parsed placement: %v", p.Spaces)
	}
	if got := p.Format(tr); got != "in:T,w:C,out:G" {
		t.Errorf("format = %q", got)
	}
	if got := p.String(); !strings.Contains(got, "a0:T") {
		t.Errorf("anonymous format = %q", got)
	}
	if _, err := Parse(tr, "nosuch:G"); err == nil {
		t.Error("unknown array should error")
	}
	if _, err := Parse(tr, "in=G"); err == nil {
		t.Error("malformed element should error")
	}
	if _, err := Parse(tr, "in:Q"); err == nil {
		t.Error("bad space should error")
	}
	empty, err := Parse(tr, "  ")
	if err != nil || empty.Of(0) != gpu.Global {
		t.Errorf("empty spec: %v %v", empty, err)
	}
}

func TestCloneMoveEqual(t *testing.T) {
	tr := testTrace(t)
	p := New(len(tr.Arrays))
	q := p.WithMove(0, gpu.Texture1D)
	if p.Equal(q) {
		t.Error("WithMove must not mutate the receiver")
	}
	if q.Of(0) != gpu.Texture1D {
		t.Error("move not applied")
	}
	c := q.Clone()
	c.Spaces[1] = gpu.Shared
	if q.Of(1) == gpu.Shared {
		t.Error("Clone must deep-copy")
	}
	if p.Equal(&Placement{Spaces: p.Spaces[:2]}) {
		t.Error("length mismatch should be unequal")
	}
}

func TestCheckLegality(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := testTrace(t)

	ok, _ := Parse(tr, "in:2T,w:C,out:S")
	if err := Check(tr, ok, cfg); err != nil {
		t.Errorf("legal placement rejected: %v", err)
	}

	// Written array in a read-only space.
	bad, _ := Parse(tr, "out:T")
	if err := Check(tr, bad, cfg); err == nil {
		t.Error("store to texture must be illegal")
	}
	bad2, _ := Parse(tr, "out:C")
	if err := Check(tr, bad2, cfg); err == nil {
		t.Error("store to constant must be illegal")
	}

	// 2D texture requires a 2D shape: w has none.
	bad3, _ := Parse(tr, "w:2T")
	if err := Check(tr, bad3, cfg); err == nil {
		t.Error("2D texture without 2D shape must be illegal")
	}

	// Wrong arity.
	if err := Check(tr, New(2), cfg); err == nil {
		t.Error("arity mismatch must be illegal")
	}
}

func TestCheckConstantCapacity(t *testing.T) {
	cfg := gpu.KeplerK80()
	b := trace.NewBuilder("k", trace.Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	big := b.DeclareArray(trace.Array{Name: "big", Type: trace.F32, Len: 20000, ReadOnly: true}) // 80 KB
	b.Warp(0, 0).LoadCoalesced(big, 0, 32)
	tr := b.MustBuild()
	p, _ := Parse(tr, "big:C")
	if err := Check(tr, p, cfg); err == nil {
		t.Error("80KB in 64KB constant memory must overflow")
	}
}

func TestSharedFootprintAndCapacity(t *testing.T) {
	cfg := gpu.KeplerK80()
	b := trace.NewBuilder("k", trace.Launch{Blocks: 4, ThreadsPerBlock: 32, WarpSize: 32})
	arr := b.DeclareArray(trace.Array{Name: "a", Type: trace.F32, Len: 1024})
	b.Warp(0, 0).LoadCoalesced(arr, 0, 32)
	tr := b.MustBuild()

	// 4096 bytes over 4 blocks = 1024 per block.
	if got := SharedFootprint(tr, 0); got != 1024 {
		t.Errorf("footprint = %d", got)
	}
	p, _ := Parse(tr, "a:S")
	if err := Check(tr, p, cfg); err != nil {
		t.Errorf("1KB/block must fit: %v", err)
	}

	// A single huge array cannot fit per-block.
	b2 := trace.NewBuilder("k2", trace.Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	huge := b2.DeclareArray(trace.Array{Name: "h", Type: trace.F32, Len: 1 << 16}) // 256KB, 1 block
	b2.Warp(0, 0).LoadCoalesced(huge, 0, 32)
	tr2 := b2.MustBuild()
	p2, _ := Parse(tr2, "h:S")
	if err := Check(tr2, p2, gpu.KeplerK80()); err == nil {
		t.Error("256KB per block must overflow 48KB shared memory")
	}
}

func TestOptionsRespectConstraints(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := testTrace(t)
	// in: read-only + 2D → all five spaces.
	if got := Options(tr, 0, cfg); len(got) != 5 {
		t.Errorf("in options = %v", got)
	}
	// w: read-only, 1D, small → G,S,C,T.
	if got := Options(tr, 1, cfg); len(got) != 4 {
		t.Errorf("w options = %v", got)
	}
	// out: written → G,S only.
	got := Options(tr, 2, cfg)
	if len(got) != 2 || got[0] != gpu.Global || got[1] != gpu.Shared {
		t.Errorf("out options = %v", got)
	}
}

func TestEnumerateCountsAndLegality(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := testTrace(t)
	all := Enumerate(tr, cfg)
	// 5 (in) × 4 (w) × 2 (out) = 40, all within capacities here.
	if len(all) != 40 {
		t.Errorf("enumerated %d placements, want 40", len(all))
	}
	seen := make(map[string]bool)
	for _, p := range all {
		if err := Check(tr, p, cfg); err != nil {
			t.Errorf("enumerated illegal placement %s: %v", p.Format(tr), err)
		}
		key := p.String()
		if seen[key] {
			t.Errorf("duplicate placement %s", key)
		}
		seen[key] = true
	}
}

func TestSpaceNeighbors(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := testTrace(t)
	sample := New(len(tr.Arrays))
	var moves []*Placement
	NewSpace(tr, cfg).Neighbors(sample, 0, len(tr.Arrays), func(_ int64, _ int, next *Placement) {
		moves = append(moves, next)
	})
	// in: 4 non-global options; w: 3; out: 1 → 8 single moves.
	if len(moves) != 8 {
		t.Errorf("moves = %d, want 8", len(moves))
	}
	for _, m := range moves {
		diff := 0
		for i := range m.Spaces {
			if m.Spaces[i] != sample.Spaces[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("move %s changes %d arrays", m.Format(tr), diff)
		}
	}
}

func TestLayoutAssignment(t *testing.T) {
	tr := testTrace(t)
	p := New(len(tr.Arrays))
	l := NewLayout(tr, p)
	// Sequential, aligned, non-overlapping.
	if l.Base[0] != HeapBase {
		t.Errorf("first base = %#x", l.Base[0])
	}
	for i := 0; i < len(tr.Arrays); i++ {
		if l.Base[i]%AllocAlign != 0 {
			t.Errorf("array %d base %#x unaligned", i, l.Base[i])
		}
		for j := i + 1; j < len(tr.Arrays); j++ {
			iEnd := l.Base[i] + uint64(tr.Arrays[i].Bytes())
			jEnd := l.Base[j] + uint64(tr.Arrays[j].Bytes())
			if l.Base[i] < jEnd && l.Base[j] < iEnd {
				t.Errorf("arrays %d and %d overlap", i, j)
			}
		}
	}
}

// Property (§III-E): retargeting between off-chip memories preserves the
// array's address; moving on/off chip assigns fresh ranges beyond the
// sample heap.
func TestRetargetAddressRules(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := testTrace(t)
	sample := New(len(tr.Arrays))
	sampleLayout := NewLayout(tr, sample)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		all := Enumerate(tr, cfg)
		target := all[r.Intn(len(all))]
		l := Retarget(tr, sampleLayout, sample, target)
		for i := range tr.Arrays {
			sSp, tSp := sample.Spaces[i], target.Spaces[i]
			switch {
			case sSp != gpu.Shared && tSp != gpu.Shared:
				if l.Base[i] != sampleLayout.Base[i] {
					return false // off-chip → off-chip keeps the address
				}
			case sSp != gpu.Shared && tSp == gpu.Shared:
				if l.SharedOff[i]+uint64(SharedFootprint(tr, trace.ArrayID(i))) > l.SharedEnd {
					return false
				}
			case sSp == gpu.Shared && tSp != gpu.Shared:
				if l.Base[i] < sampleLayout.HeapEnd {
					return false // fresh range after the allocated heap
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAddressResolution(t *testing.T) {
	tr := testTrace(t)
	p := New(len(tr.Arrays))
	l := NewLayout(tr, p)
	if got := l.Address(tr, 0, 3); got != l.Base[0]+12 {
		t.Errorf("address = %#x", got)
	}
}

func TestSharedAddressWrapsTile(t *testing.T) {
	tr := testTrace(t) // 8 blocks
	p, _ := Parse(tr, "out:S")
	l := NewLayout(tr, p)
	foot := uint64(SharedFootprint(tr, 2))
	elems := int64(foot / 4)
	// An index beyond the per-block tile wraps into it.
	a := l.SharedAddress(tr, 2, 0)
	b := l.SharedAddress(tr, 2, elems)
	if a != b {
		t.Errorf("tile wrap: %#x vs %#x", a, b)
	}
	c := l.SharedAddress(tr, 2, 1)
	if c != a+4 {
		t.Errorf("consecutive elements: %#x vs %#x", c, a)
	}
}

func TestSharedStagingBytes(t *testing.T) {
	tr := testTrace(t)
	p, _ := Parse(tr, "w:S")
	got := SharedStagingBytes(tr, p)
	want := float64(SharedFootprint(tr, 1) * tr.Launch.Blocks)
	if got != want {
		t.Errorf("staging = %g, want %g", got, want)
	}
	if SharedStagingBytes(tr, New(len(tr.Arrays))) != 0 {
		t.Error("no shared arrays → no staging")
	}
}

func TestCheckCapacitySentinel(t *testing.T) {
	cfg := gpu.KeplerK80()

	// Constant overflow must carry both the narrow capacity sentinel and the
	// broad illegal-placement sentinel (the chain the service's 422 mapping
	// depends on).
	b := trace.NewBuilder("k", trace.Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	big := b.DeclareArray(trace.Array{Name: "big", Type: trace.F32, Len: 20000, ReadOnly: true})
	b.Warp(0, 0).LoadCoalesced(big, 0, 32)
	tr := b.MustBuild()
	p, _ := Parse(tr, "big:C")
	err := Check(tr, p, cfg)
	if !errors.Is(err, hmserr.ErrCapacityExceeded) {
		t.Errorf("constant overflow = %v, want ErrCapacityExceeded", err)
	}
	if !errors.Is(err, hmserr.ErrIllegalPlacement) {
		t.Errorf("capacity error must still chain onto ErrIllegalPlacement: %v", err)
	}

	// Shared overflow likewise.
	b2 := trace.NewBuilder("k2", trace.Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	huge := b2.DeclareArray(trace.Array{Name: "h", Type: trace.F32, Len: 1 << 16})
	b2.Warp(0, 0).LoadCoalesced(huge, 0, 32)
	tr2 := b2.MustBuild()
	p2, _ := Parse(tr2, "h:S")
	if err := Check(tr2, p2, cfg); !errors.Is(err, hmserr.ErrCapacityExceeded) {
		t.Errorf("shared overflow = %v, want ErrCapacityExceeded", err)
	}

	// Non-capacity illegality stays outside the capacity class.
	trc := testTrace(t)
	bad, _ := Parse(trc, "out:T")
	if err := Check(trc, bad, cfg); errors.Is(err, hmserr.ErrCapacityExceeded) {
		t.Errorf("read-only violation must not classify as capacity: %v", err)
	}
}

func TestCheckDeviceMemoryCapacity(t *testing.T) {
	// Bound the DRAM tightly: in (2 KiB) + out (2 KiB) overflow a 3 KiB
	// device, so the all-global placement must be rejected as a capacity
	// error; staging everything possible off DRAM must pass.
	cfg := gpu.KeplerK80()
	cfg.GlobalBytes = 3 << 10
	tr := testTrace(t)
	allGlobal := New(len(tr.Arrays))
	err := Check(tr, allGlobal, cfg)
	if !errors.Is(err, hmserr.ErrCapacityExceeded) {
		t.Errorf("device overflow = %v, want ErrCapacityExceeded", err)
	}
	ok, _ := Parse(tr, "in:2T,w:C,out:S")
	// in (2 KiB) alone fits in 3 KiB once w and out leave DRAM.
	if err := Check(tr, ok, cfg); err != nil {
		t.Errorf("placement within bounded DRAM rejected: %v", err)
	}

	// GlobalBytes == 0 keeps DRAM unbounded (the historical behavior).
	cfg.GlobalBytes = 0
	if err := Check(tr, allGlobal, cfg); err != nil {
		t.Errorf("unbounded DRAM must accept all-global: %v", err)
	}
}
