package placement

import (
	"context"
	"math"

	"gpuhms/internal/gpu"
	"gpuhms/internal/trace"
)

// Space is an indexed view of a trace's placement search space: the
// mixed-radix cross product of each array's legal memory spaces (the m^n
// space of the paper's introduction, before aggregate-capacity screening).
// Array 0 is the most significant digit, so a raw index orders placements
// exactly as EnumerateSeq does. Space is the one walker of that space, in
// two orders: ascending raw index (EnumerateSeq, Count) and reflected
// (GrayWalk, the exhaustive search's order, in which consecutive positions
// mostly differ in a single array, so most evaluations can be a delta from
// the previous one).
//
// A Space is immutable after NewSpace and safe for concurrent use; the
// scratch placement a walk yields is private to that walk.
type Space struct {
	t      *trace.Trace
	cfg    *gpu.Config
	opts   [][]gpu.MemSpace
	weight []int64 // raw-index weight of each digit (wraps for huge spaces, as IndexOf does)
	raw    int64
}

// NewSpace builds the indexed placement space of a trace on an architecture.
// A zero-array trace has an empty space (RawSize 0): it has no placement
// decisions to rank, matching EnumerateSeq.
func NewSpace(t *trace.Trace, cfg *gpu.Config) *Space {
	s := &Space{t: t, cfg: cfg}
	n := len(t.Arrays)
	if n == 0 {
		return s
	}
	s.opts = make([][]gpu.MemSpace, n)
	s.weight = make([]int64, n)
	s.raw = 1
	w := int64(1)
	for i := n - 1; i >= 0; i-- {
		s.opts[i] = Options(t, trace.ArrayID(i), cfg)
		s.weight[i] = w
		r := int64(len(s.opts[i]))
		w *= r
		if s.raw > math.MaxInt64/r {
			s.raw = math.MaxInt64 // saturate; At still decodes exactly
		} else {
			s.raw *= r
		}
	}
	return s
}

// RawSize is the size of the unscreened cross product — the count of raw
// indices At accepts. Legal placements are a subset (aggregate capacity
// checks reject some combinations). Saturates at MaxInt64 for astronomically
// large spaces; At remains exact regardless.
func (s *Space) RawSize() int64 { return s.raw }

// digits decodes raw index i into per-array option indices, reporting
// whether i is in range.
func (s *Space) digits(i int64, digit []int) bool {
	if i < 0 || len(s.opts) == 0 {
		return false
	}
	for j := len(s.opts) - 1; j >= 0; j-- {
		r := int64(len(s.opts[j]))
		digit[j] = int(i % r)
		i /= r
	}
	return i == 0
}

// At decodes raw index i into dst (which must hold len(t.Arrays) spaces) and
// reports whether i is in range. Index 0 is the first placement EnumerateSeq
// yields before legality screening; ascending indices match the enumeration
// order. At does not check legality — pair it with Check.
func (s *Space) At(i int64, dst *Placement) bool {
	if len(dst.Spaces) != len(s.opts) {
		return false
	}
	digit := make([]int, len(s.opts))
	if !s.digits(i, digit) {
		return false
	}
	for j, d := range digit {
		dst.Spaces[j] = s.opts[j][d]
	}
	return true
}

// IndexOf is the inverse of At: it encodes a placement back to its raw
// enumeration index, reporting false when any array uses a space outside its
// legal option set (or the arity mismatches). Sub-exhaustive searches use it
// to give every candidate they construct the same Index an enumeration would
// have assigned, so rankings from different strategies order ties identically
// and deduplicate by index.
func (s *Space) IndexOf(p *Placement) (int64, bool) {
	if len(s.opts) == 0 || len(p.Spaces) != len(s.opts) {
		return 0, false
	}
	var idx int64
	for j := range s.opts {
		digit := -1
		for d, sp := range s.opts[j] {
			if sp == p.Spaces[j] {
				digit = d
				break
			}
		}
		if digit < 0 {
			return 0, false
		}
		idx = idx*int64(len(s.opts[j])) + int64(digit)
	}
	return idx, true
}

// Arrays returns the number of arrays (mixed-radix digits) in the space.
func (s *Space) Arrays() int { return len(s.opts) }

// ArrayOptions returns the legal spaces of one array, in the digit order At
// decodes. The returned slice is the space's own; callers must not mutate it.
func (s *Space) ArrayOptions(i int) []gpu.MemSpace { return s.opts[i] }

// Count returns the size of the legal placement space: one legality check
// per raw index, no model evaluations, O(1) memory. It returns ctx.Err()
// when ctx ends first — a space of many arrays can take far longer to count
// than any search of it.
func (s *Space) Count(ctx context.Context) (int, error) {
	n := 0
	err := s.walk(ctx, 0, s.raw, false, func(int64, int, *Placement) bool { n++; return true })
	return n, err
}

// GrayWalk streams the legal placements at positions [lo, hi) of the
// reflected order, yielding each with its raw index and the array in which
// it differs from the previous yield, or −1 (the first yield, or a change of
// more than one array). In the reflected order array k runs through its
// options backwards when the standard mixed-radix digits of the more
// significant arrays sum to an odd number. With every radix odd that is the
// reflected Gray code, one array per step; a step that carries through an
// even radix can change more than one. Splitting [0, RawSize) into ranges
// partitions the legal space: each placement is yielded by exactly one
// range. The yielded placement is scratch owned by the walk — clone to keep
// it. Returning false from yield stops the walk; it returns ctx.Err() if ctx
// ends first, nil otherwise.
func (s *Space) GrayWalk(ctx context.Context, lo, hi int64, yield func(idx int64, moved int, p *Placement) bool) error {
	return s.walk(ctx, lo, hi, true, yield)
}

// Neighbors yields every legal placement one array away from p, moving one
// of the arrays [lo, hi) to another of its spaces, in (array, option) order
// with the neighbor's raw index. Each yielded placement is a fresh copy the
// caller may keep.
func (s *Space) Neighbors(p *Placement, lo, hi int, yield func(idx int64, array int, next *Placement)) {
	for j := lo; j < hi; j++ {
		for _, sp := range s.opts[j] {
			if sp == p.Spaces[j] {
				continue
			}
			next := p.WithMove(trace.ArrayID(j), sp)
			if Check(s.t, next, s.cfg) != nil {
				continue
			}
			if idx, ok := s.IndexOf(next); ok {
				yield(idx, j, next)
			}
		}
	}
}

// walk steps through positions [lo, hi) of the ascending (reflect=false)
// or reflected order and yields the legal placements (see GrayWalk). The
// position's standard mixed-radix digits advance like an odometer; with
// reflect, array k takes option r−1−d instead of d when the standard digits
// above it sum to an odd number. A step changes the placement only from the
// most significant digit it moved downwards, so it recomputes just those.
func (s *Space) walk(ctx context.Context, lo, hi int64, reflect bool, yield func(int64, int, *Placement) bool) error {
	n := len(s.opts)
	if n == 0 || lo < 0 || hi > s.raw || lo >= hi {
		return nil
	}
	std := make([]int, n)    // standard digits of the position
	digit := make([]int, n)  // option index of each array at the position
	odd := make([]bool, n+1) // odd[k]: std[0..k) sums to an odd number
	p := New(n)
	var idx int64
	set := func(j int) {
		for k := j; k < n; k++ {
			d := std[k]
			if reflect && odd[k] {
				d = len(s.opts[k]) - 1 - d
			}
			idx += int64(d-digit[k]) * s.weight[k]
			digit[k] = d
			p.Spaces[k] = s.opts[k][d]
			odd[k+1] = odd[k] != (std[k]%2 == 1)
		}
	}
	s.digits(lo, std)
	set(0)
	var last []int // digits at the previous yield
	for pos := lo; ; {
		if (pos-lo)%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if Check(s.t, p, s.cfg) == nil {
			moved := -1
			if last == nil {
				last = make([]int, n)
			} else {
				moved = oneDiff(last, digit)
			}
			copy(last, digit)
			if !yield(idx, moved, p) {
				return nil
			}
		}
		if pos++; pos == hi {
			return nil
		}
		j := n - 1
		for std[j]+1 == len(s.opts[j]) {
			std[j] = 0
			j--
		}
		std[j]++
		set(j)
	}
}

// oneDiff returns the single index at which a and b differ, or −1 when they
// differ in none or in more than one.
func oneDiff(a, b []int) int {
	moved := -1
	for j := range a {
		if a[j] != b[j] {
			if moved >= 0 {
				return -1
			}
			moved = j
		}
	}
	return moved
}
