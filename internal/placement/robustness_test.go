package placement

import (
	"errors"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/trace"
)

// emptyTrace builds a (legal) kernel that declares no data arrays — the
// degenerate input that used to make Enumerate return a single zero-length
// placement built from a panic-prone recursion.
func emptyTrace(t *testing.T) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder("noarrays", trace.Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	b.Warp(0, 0).FP32(4)
	tr, err := b.Build()
	if err != nil {
		t.Fatalf("building zero-array trace: %v", err)
	}
	return tr
}

func TestOfOutOfRangeIsGlobal(t *testing.T) {
	p := New(2)
	p.Spaces[1] = gpu.Texture1D
	for _, id := range []trace.ArrayID{-1, 2, 1000} {
		if got := p.Of(id); got != gpu.Global {
			t.Errorf("Of(%d) = %v, want Global", id, got)
		}
		if _, err := p.SpaceOf(id); !errors.Is(err, hmserr.ErrIllegalPlacement) {
			t.Errorf("SpaceOf(%d) err = %v, want ErrIllegalPlacement", id, err)
		}
	}
	if sp, err := p.SpaceOf(1); err != nil || sp != gpu.Texture1D {
		t.Errorf("SpaceOf(1) = %v, %v", sp, err)
	}
}

func TestWithMoveOutOfRangeIsUnchanged(t *testing.T) {
	p := New(2)
	p.Spaces[0] = gpu.Shared
	for _, id := range []trace.ArrayID{-1, 2, 1000} {
		cp := p.WithMove(id, gpu.Constant)
		if !cp.Equal(p) {
			t.Errorf("WithMove(%d) changed the placement: %v", id, cp.Spaces)
		}
		if _, err := p.WithMoveChecked(id, gpu.Constant); !errors.Is(err, hmserr.ErrIllegalPlacement) {
			t.Errorf("WithMoveChecked(%d) err = %v, want ErrIllegalPlacement", id, err)
		}
	}
	cp, err := p.WithMoveChecked(1, gpu.Constant)
	if err != nil || cp.Of(1) != gpu.Constant || cp.Of(0) != gpu.Shared {
		t.Errorf("WithMoveChecked(1) = %v, %v", cp, err)
	}
}

func TestEnumerateZeroArrays(t *testing.T) {
	tr := emptyTrace(t)
	cfg := gpu.KeplerK80()
	if got := Enumerate(tr, cfg); len(got) != 0 {
		t.Errorf("Enumerate of zero-array trace = %d placements, want 0", len(got))
	}
	calls := 0
	EnumerateSeq(tr, cfg, func(*Placement) bool { calls++; return true })
	if calls != 0 {
		t.Errorf("EnumerateSeq of zero-array trace yielded %d times, want 0", calls)
	}
}

func TestEnumerateSeqMatchesEnumerate(t *testing.T) {
	tr := testTrace(t)
	cfg := gpu.KeplerK80()
	want := Enumerate(tr, cfg)
	var got []*Placement
	EnumerateSeq(tr, cfg, func(p *Placement) bool {
		got = append(got, p.Clone())
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("EnumerateSeq yielded %d placements, Enumerate %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("placement %d differs: %v vs %v", i, got[i].Spaces, want[i].Spaces)
		}
	}
}

// TestEnumerateSeqReusesScratch pins the O(1) enumeration contract
// RankPlacements relies on for its O(K) memory bound: every yield hands back
// the same placement, so keeping a candidate requires an explicit Clone.
func TestEnumerateSeqReusesScratch(t *testing.T) {
	tr := testTrace(t)
	var first *Placement
	yields := 0
	EnumerateSeq(tr, gpu.KeplerK80(), func(p *Placement) bool {
		yields++
		if first == nil {
			first = p
		} else if p != first {
			t.Fatal("EnumerateSeq allocated a fresh placement per yield")
		}
		return true
	})
	if yields < 2 {
		t.Fatalf("want a multi-placement space, got %d yields", yields)
	}
}

func TestEnumerateSeqStopsOnFalse(t *testing.T) {
	tr := testTrace(t)
	yields := 0
	EnumerateSeq(tr, gpu.KeplerK80(), func(*Placement) bool {
		yields++
		return yields < 3
	})
	if yields != 3 {
		t.Errorf("yield returning false did not stop enumeration: %d yields", yields)
	}
}
