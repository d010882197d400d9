package trace

// interner assigns lane-pattern ids while a trace is built or decoded:
// memory instructions with equal (array, op, active lanes, offsets from the
// first active lane) share one Pattern of the trace. Shapes are found by a
// hash and confirmed by comparison, so no key is stored.
type interner struct {
	ids   map[uint64]int32 // shape hash → the latest pattern with that hash
	next  []int32          // per pattern: the previous one with its hash, or -1
	array []ArrayID        // per pattern: its array and op
	op    []Op
	// Pattern slices are carved from shared chunks rather than allocated one
	// by one.
	rel    []int64
	active []int32
}

// chunk is the element count of one carving chunk.
const chunk = 4096

// carve returns n elements cut from the tail of *arena, starting a new chunk
// when it is full.
func carve[T any](arena *[]T, n int) []T {
	a := *arena
	if cap(a)-len(a) < n {
		a = make([]T, 0, max(n, chunk))
	}
	s := a[len(a) : len(a)+n : len(a)+n]
	*arena = a[:len(a)+n]
	return s
}

// intern records one warp access of array a by op with per-lane element
// indices idx (Inactive for masked lanes) in t's pattern table and returns
// its pattern id and first active index (0 when no lane is active). idx is
// read, not kept.
func (it *interner) intern(t *Trace, a ArrayID, op Op, idx []int64) (int32, int64) {
	first, active := int64(0), 0
	h := mix(mix(uint64(a), uint64(op)), uint64(len(idx)))
	for l, ix := range idx {
		if ix == Inactive {
			h = mix(h, uint64(l))
			continue
		}
		if active == 0 {
			first = ix
		}
		active++
		h = mix(h, uint64(ix-first))
	}
	head, ok := it.ids[h]
	for id := head; ok && id >= 0; id = it.next[id] {
		if it.array[id] == a && it.op[id] == op && t.Patterns[id].matches(idx, first, active) {
			t.Patterns[id].Uses++
			return id, first
		}
	}

	p := Pattern{Lanes: len(idx), Uses: 1}
	if active > 0 {
		p.Rel = carve(&it.rel, active)
		p.Active = carve(&it.active, active)
		k := 0
		for l, ix := range idx {
			if ix == Inactive {
				continue
			}
			rel := ix - first
			p.Active[k], p.Rel[k] = int32(l), rel
			p.MinRel, p.MaxRel = min(p.MinRel, rel), max(p.MaxRel, rel)
			k++
		}
	}
	if it.ids == nil {
		it.ids = make(map[uint64]int32)
	}
	id := int32(len(t.Patterns))
	if !ok {
		head = -1
	}
	it.ids[h] = id
	it.next = append(it.next, head)
	it.array = append(it.array, a)
	it.op = append(it.op, op)
	t.Patterns = append(t.Patterns, p)
	return id, first
}

// mix folds v into the shape hash h.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// matches reports whether lane indices idx, whose first active index is
// first and which have active active lanes, have the pattern's shape.
func (p *Pattern) matches(idx []int64, first int64, active int) bool {
	if p.Lanes != len(idx) || len(p.Rel) != active {
		return false
	}
	k := 0
	for l, ix := range idx {
		if ix == Inactive {
			continue
		}
		if int(p.Active[k]) != l || p.Rel[k] != ix-first {
			return false
		}
		k++
	}
	return true
}

// wellFormed reports whether the pattern is internally consistent: one
// offset per active lane, active lanes ascending within the lane count, the
// first offset zero, and MinRel and MaxRel the offsets' extremes. Interned
// patterns always are; resolution relies on it.
func (p *Pattern) wellFormed() bool {
	if p.Lanes < 0 || len(p.Active) != len(p.Rel) {
		return false
	}
	if len(p.Rel) == 0 {
		return p.MinRel == 0 && p.MaxRel == 0
	}
	if p.Rel[0] != 0 {
		return false
	}
	lo, hi := int64(0), int64(0)
	for k, rel := range p.Rel {
		if l := p.Active[k]; l < 0 || int(l) >= p.Lanes || (k > 0 && l <= p.Active[k-1]) {
			return false
		}
		lo, hi = min(lo, rel), max(hi, rel)
	}
	return lo == p.MinRel && hi == p.MaxRel
}
