package placement

import (
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/trace"
)

// seqWithIndex collects the EnumerateSeq stream annotated with each legal
// placement's raw (unscreened) index — the reference EnumerateShard must
// reproduce.
func seqWithIndex(t *trace.Trace, cfg *gpu.Config) (idxs []int64, pls []*Placement) {
	s := NewSpace(t, cfg)
	scratch := New(len(t.Arrays))
	next := int64(0)
	EnumerateSeq(t, cfg, func(p *Placement) bool {
		// Advance next until it decodes to p (skipping illegal indices).
		for {
			if !s.At(next, scratch) {
				panic("EnumerateSeq yielded a placement beyond RawSize")
			}
			if scratch.Equal(p) {
				break
			}
			next++
		}
		idxs = append(idxs, next)
		pls = append(pls, p.Clone())
		next++
		return true
	})
	return idxs, pls
}

func TestSpaceAtMatchesEnumerateSeq(t *testing.T) {
	tr := testTrace(t)
	cfg := gpu.KeplerK80()
	s := NewSpace(tr, cfg)

	if s.RawSize() <= 0 {
		t.Fatalf("RawSize = %d, want > 0", s.RawSize())
	}
	// Raw size is the product of per-array option counts.
	want := int64(1)
	for i := range tr.Arrays {
		want *= int64(len(Options(tr, trace.ArrayID(i), cfg)))
	}
	if s.RawSize() != want {
		t.Fatalf("RawSize = %d, want %d", s.RawSize(), want)
	}

	// Every raw index decodes; one past the end does not.
	dst := New(len(tr.Arrays))
	for i := int64(0); i < s.RawSize(); i++ {
		if !s.At(i, dst) {
			t.Fatalf("At(%d) = false inside the space", i)
		}
	}
	if s.At(s.RawSize(), dst) {
		t.Fatalf("At(%d) = true past the end", s.RawSize())
	}
	if s.At(-1, dst) {
		t.Fatal("At(-1) = true")
	}
	if s.At(0, New(1)) {
		t.Fatal("At with a wrong-arity destination = true")
	}

	// Ascending raw indices, filtered by Check, reproduce EnumerateSeq.
	idxs, pls := seqWithIndex(tr, cfg)
	if len(pls) == 0 {
		t.Fatal("no legal placements")
	}
	for k, idx := range idxs {
		if !s.At(idx, dst) || !dst.Equal(pls[k]) {
			t.Fatalf("At(%d) = %v, want %v", idx, dst.Spaces, pls[k].Spaces)
		}
	}
}

func TestEnumerateShardUnionMatchesSeq(t *testing.T) {
	tr := testTrace(t)
	cfg := gpu.KeplerK80()
	s := NewSpace(tr, cfg)
	wantIdx, wantPl := seqWithIndex(tr, cfg)

	for _, stride := range []int{1, 2, 3, 7, 64, int(s.RawSize()) + 5} {
		got := make(map[int64]*Placement)
		for shard := 0; shard < stride; shard++ {
			lastIdx := int64(-1)
			s.EnumerateShard(shard, stride, func(idx int64, p *Placement) bool {
				if idx%int64(stride) != int64(shard) {
					t.Fatalf("stride %d shard %d yielded idx %d", stride, shard, idx)
				}
				if idx <= lastIdx {
					t.Fatalf("stride %d shard %d: idx %d after %d (not ascending)", stride, shard, idx, lastIdx)
				}
				lastIdx = idx
				if _, dup := got[idx]; dup {
					t.Fatalf("stride %d: duplicate idx %d", stride, idx)
				}
				got[idx] = p.Clone()
				return true
			})
		}
		if len(got) != len(wantIdx) {
			t.Fatalf("stride %d: %d placements, want %d", stride, len(got), len(wantIdx))
		}
		for k, idx := range wantIdx {
			p, ok := got[idx]
			if !ok || !p.Equal(wantPl[k]) {
				t.Fatalf("stride %d: idx %d missing or wrong", stride, idx)
			}
		}
	}
}

func TestEnumerateShardEarlyStopAndEdges(t *testing.T) {
	tr := testTrace(t)
	cfg := gpu.KeplerK80()
	s := NewSpace(tr, cfg)

	// Early stop: yield false after the first placement.
	n := 0
	s.EnumerateShard(0, 1, func(int64, *Placement) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop yielded %d placements", n)
	}

	// Degenerate shard parameters yield nothing.
	for _, bad := range [][2]int{{-1, 2}, {0, 0}, {0, -3}, {int(s.RawSize()), 1}} {
		n = 0
		s.EnumerateShard(bad[0], bad[1], func(int64, *Placement) bool { n++; return true })
		if n != 0 {
			t.Fatalf("EnumerateShard(%d, %d) yielded %d placements", bad[0], bad[1], n)
		}
	}

	// A zero-array trace has an empty space.
	empty := trace.NewBuilder("empty", trace.Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	empty.Warp(0, 0).FP32(1)
	es := NewSpace(empty.MustBuild(), cfg)
	if es.RawSize() != 0 {
		t.Fatalf("zero-array RawSize = %d", es.RawSize())
	}
	n = 0
	es.EnumerateShard(0, 1, func(int64, *Placement) bool { n++; return true })
	if n != 0 {
		t.Fatalf("zero-array shard yielded %d", n)
	}
	if es.At(0, New(0)) {
		t.Fatal("zero-array At(0) = true")
	}
}

// TestSpaceIndexOf pins the encode side of the space's index bijection: every
// enumerated legal placement round-trips through IndexOf back to the raw
// index that At decodes it from, and foreign shapes are rejected.
func TestSpaceIndexOf(t *testing.T) {
	tr := testTrace(t)
	cfg := gpu.KeplerK80()
	s := NewSpace(tr, cfg)

	if s.Arrays() != len(tr.Arrays) {
		t.Fatalf("Arrays() = %d, want %d", s.Arrays(), len(tr.Arrays))
	}
	for j := 0; j < s.Arrays(); j++ {
		if len(s.ArrayOptions(j)) == 0 {
			t.Fatalf("ArrayOptions(%d) is empty", j)
		}
	}

	// Round-trip every raw index: At(i) → IndexOf = i.
	dst := New(len(tr.Arrays))
	for i := int64(0); i < s.RawSize(); i++ {
		if !s.At(i, dst) {
			t.Fatalf("At(%d) = false", i)
		}
		got, ok := s.IndexOf(dst)
		if !ok || got != i {
			t.Fatalf("IndexOf(At(%d)) = %d, %v", i, got, ok)
		}
	}

	// A placement using a space outside an array's option set is rejected,
	// as is one of the wrong arity.
	if !s.At(0, dst) {
		t.Fatal("At(0) = false")
	}
	dst.Spaces[1] = gpu.Texture2D // "w" is 1D-only in this trace
	if _, ok := s.IndexOf(dst); ok {
		t.Error("IndexOf accepted a space outside the array's options")
	}
	if _, ok := s.IndexOf(New(len(tr.Arrays) + 1)); ok {
		t.Error("IndexOf accepted a placement of the wrong arity")
	}
}

func TestCountLegalMatchesEnumerate(t *testing.T) {
	tr := testTrace(t)
	cfg := gpu.KeplerK80()
	if got, want := CountLegal(tr, cfg), len(Enumerate(tr, cfg)); got != want {
		t.Errorf("CountLegal = %d, Enumerate yields %d", got, want)
	}
}
