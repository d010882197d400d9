package placement

import (
	"context"
	"strings"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/trace"
)

// FuzzParse feeds arbitrary placement specs to the parser: no panics, and
// anything accepted must format back to a parseable spec assigning only the
// named arrays.
func FuzzParse(f *testing.F) {
	f.Add("")
	f.Add("in:T,w:C")
	f.Add("in:2T")
	f.Add("out:shared")
	f.Add("in:T,,w:C")
	f.Add("in : T , w : C")
	f.Add("in:T:extra")
	f.Add("🦆:G")
	f.Add("in:Q")                        // unknown space name
	f.Add("in:T,in:C")                   // duplicate assignment
	f.Add("nosucharray:G")               // array the trace does not declare
	f.Add("in:" + "T" + "T")             // space name with trailing junk
	f.Add(strings.Repeat("in:T,", 4096)) // pathological length
	f.Add("in:\x00G")
	f.Add(":G")
	f.Add("in:")

	b := trace.NewBuilder("k", trace.Launch{Blocks: 2, ThreadsPerBlock: 64, WarpSize: 32})
	in := b.DeclareArray(trace.Array{Name: "in", Type: trace.F32, Len: 256, Width: 16, ReadOnly: true})
	w := b.DeclareArray(trace.Array{Name: "w", Type: trace.F32, Len: 64, ReadOnly: true})
	out := b.DeclareArray(trace.Array{Name: "out", Type: trace.F32, Len: 256})
	for blk := 0; blk < 2; blk++ {
		wb := b.Warp(blk, 0)
		wb.LoadCoalesced(in, int64(blk*64), 32)
		wb.LoadBroadcast(w, 1, 32)
		wb.StoreCoalesced(out, int64(blk*64), 32)
	}
	tr := b.MustBuild()
	cfg := gpu.KeplerK80()

	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(tr, spec)
		if err != nil {
			return
		}
		// Accepted placements have one space per array…
		if len(p.Spaces) != len(tr.Arrays) {
			t.Fatalf("accepted placement with %d spaces", len(p.Spaces))
		}
		// …and the formatted form re-parses to the same placement.
		q, err := Parse(tr, p.Format(tr))
		if err != nil {
			t.Fatalf("formatted placement %q does not re-parse: %v", p.Format(tr), err)
		}
		if !p.Equal(q) {
			t.Fatalf("format/parse round trip changed %q", p.Format(tr))
		}
		// Check never panics either way.
		_ = Check(tr, p, cfg)
	})
}

// FuzzSpaceWalk splits the raw space into 1–16 worker ranges, as the
// exhaustive search does, and checks the reflected range walks against a
// division-based reference decode of every position: the union yields every
// legal placement exactly once, in reference order within each range; each
// yield's index is its IndexOf; and the reported moved array is the one
// array in which the yield differs from the previous one, or −1 when it
// differs in several. The trace mixes even and odd radices, and two
// constant-memory arrays that overflow together make some combinations
// illegal.
func FuzzSpaceWalk(f *testing.F) {
	for _, w := range []int{1, 2, 3, 5, 7, 8, 13, 16} {
		f.Add(w)
	}

	b := trace.NewBuilder("k", trace.Launch{Blocks: 2, ThreadsPerBlock: 64, WarpSize: 32})
	in := b.DeclareArray(trace.Array{Name: "in", Type: trace.F32, Len: 256, Width: 16, ReadOnly: true})
	w := b.DeclareArray(trace.Array{Name: "w", Type: trace.F32, Len: 64, ReadOnly: true})
	out := b.DeclareArray(trace.Array{Name: "out", Type: trace.F32, Len: 256})
	big1 := b.DeclareArray(trace.Array{Name: "big1", Type: trace.F32, Len: 10240, ReadOnly: true})
	big2 := b.DeclareArray(trace.Array{Name: "big2", Type: trace.F32, Len: 10240, ReadOnly: true})
	for blk := 0; blk < 2; blk++ {
		wb := b.Warp(blk, 0)
		wb.LoadCoalesced(in, int64(blk*64), 32)
		wb.LoadBroadcast(w, 1, 32)
		wb.LoadCoalesced(big1, int64(blk*64), 32)
		wb.LoadCoalesced(big2, int64(blk*64), 32)
		wb.StoreCoalesced(out, int64(blk*64), 32)
	}
	tr := b.MustBuild()
	cfg := gpu.KeplerK80()
	space := NewSpace(tr, cfg)
	raw := space.RawSize()
	n := len(tr.Arrays)

	// Reference: position → placement by standard decode plus reflection
	// (digit j runs backwards when the standard digits above it sum to an
	// odd number).
	ref := make([]*Placement, raw)
	legal := make([]bool, raw)
	illegal := 0
	for pos := int64(0); pos < raw; pos++ {
		std := make([]int, n)
		for j, rem := n-1, pos; j >= 0; j-- {
			r := int64(len(space.ArrayOptions(j)))
			std[j] = int(rem % r)
			rem /= r
		}
		p, sum := New(n), 0
		for j := 0; j < n; j++ {
			opts := space.ArrayOptions(j)
			d := std[j]
			if sum%2 == 1 {
				d = len(opts) - 1 - d
			}
			p.Spaces[j] = opts[d]
			sum += std[j]
		}
		ref[pos], legal[pos] = p, Check(tr, p, cfg) == nil
		if !legal[pos] {
			illegal++
		}
	}
	if illegal == 0 || illegal == int(raw) {
		f.Fatalf("fixture has %d illegal of %d placements; want some of each", illegal, raw)
	}
	want := Enumerate(tr, cfg)

	f.Fuzz(func(t *testing.T, workers int) {
		if workers < 1 || workers > 16 {
			return
		}
		seen := make(map[int64]bool)
		for wk := int64(0); wk < int64(workers); wk++ {
			lo, hi := wk*raw/int64(workers), (wk+1)*raw/int64(workers)
			pos, last := lo, int64(-1) // next reference position; last yielded one
			space.GrayWalk(context.Background(), lo, hi, func(idx int64, moved int, p *Placement) bool {
				for pos < hi && !legal[pos] {
					pos++
				}
				if pos == hi || !p.Equal(ref[pos]) {
					t.Fatalf("workers %d range [%d,%d): yield %v, want reference position %d", workers, lo, hi, p.Spaces, pos)
				}
				if want, ok := space.IndexOf(p); !ok || idx != want {
					t.Fatalf("workers %d: yield index %d, IndexOf %d (%v)", workers, idx, want, ok)
				}
				if seen[idx] {
					t.Fatalf("workers %d: index %d yielded twice", workers, idx)
				}
				seen[idx] = true
				if last < 0 {
					if moved != -1 {
						t.Fatalf("workers %d: first yield reports moved %d", workers, moved)
					}
				} else {
					diff := -1 // the one array ref[last] and p differ in, else -1
					for j := range p.Spaces {
						if p.Spaces[j] != ref[last].Spaces[j] {
							if diff != -1 {
								diff = -1
								break
							}
							diff = j
						}
					}
					if moved != diff {
						t.Fatalf("workers %d: moved %d, want %d (%v → %v)", workers, moved, diff, ref[last].Spaces, p.Spaces)
					}
				}
				last = pos
				pos++
				return true
			})
		}
		if len(seen) != len(want) {
			t.Fatalf("workers %d: union has %d placements, want %d", workers, len(seen), len(want))
		}
		for _, p := range want {
			if idx, _ := space.IndexOf(p); !seen[idx] {
				t.Fatalf("workers %d: legal placement %v never yielded", workers, p.Spaces)
			}
		}
	})
}
