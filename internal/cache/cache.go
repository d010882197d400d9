// Package cache provides the set-associative cache models of the framework:
// the shared L2, the per-SM constant cache, and the per-SM texture cache
// (with 2D block swizzling for 2D textures). These are the "cache models
// based on the cache models in GPGPUSim" of §IV: they take a memory trace,
// filter it, and report each access's hit/miss outcome (internal/memsys
// counts the outcomes into events).
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"gpuhms/internal/gpu"
)

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	lineBytes uint64
	lineShift uint // log2(lineBytes)
	ways      int
	setMask   uint64

	// sets is laid out as sets*ways entries; within a set, tags are kept in
	// recency order (most-recently-used first), so the LRU victim is always
	// the last way. valid is tracked by tag != invalidTag, and invalid ways
	// only ever occupy the tail of a set.
	tags []uint64
}

const invalidTag = ^uint64(0)

// NewChecked builds a cache from its geometry, rejecting geometries that
// describe no sets (zero or negative sizes, lines, or ways) and lines that
// are not a power of two (tags are a shift, never a divide).
func NewChecked(g gpu.CacheGeometry) (*Cache, error) {
	if g.LineBytes <= 0 || g.Ways <= 0 {
		return nil, fmt.Errorf("cache: geometry %+v has no lines or ways", g)
	}
	if g.LineBytes&(g.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: geometry %+v line size is not a power of two", g)
	}
	sets := g.Sets()
	if sets <= 0 {
		return nil, fmt.Errorf("cache: geometry %+v has no sets", g)
	}
	// Round sets down to a power of two so indexing is a mask; geometry in
	// this repo always is one.
	for sets&(sets-1) != 0 {
		sets &^= sets & (-sets)
	}
	c := &Cache{
		lineBytes: uint64(g.LineBytes),
		lineShift: uint(bits.TrailingZeros64(uint64(g.LineBytes))),
		ways:      g.Ways,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, sets*g.Ways),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c, nil
}

// New is NewChecked for geometries already screened by gpu.Config.Validate
// (every facade entry point validates the Config first); it panics on an
// invalid geometry.
func New(g gpu.CacheGeometry) *Cache {
	c, err := NewChecked(g)
	if err != nil {
		panic(err)
	}
	return c
}

// LineBytes returns the cache line size.
func (c *Cache) LineBytes() int { return int(c.lineBytes) }

// Access looks up the line containing addr, updating LRU state; on a miss
// the line is filled. Returns true on hit.
//
// LRU is tracked by keeping each set's tags in recency order, so a hit is a
// rotate-to-front and a miss evicts the tail — the same hit/miss sequence as
// timestamped true-LRU without a second metadata array to scan.
func (c *Cache) Access(addr uint64) bool {
	tag := addr >> c.lineShift
	base := int(tag&c.setMask) * c.ways
	set := c.tags[base : base+c.ways : base+c.ways]
	if set[0] == tag {
		return true
	}
	for i := 1; i < len(set); i++ {
		if set[i] == tag {
			copy(set[1:i+1], set[:i])
			set[0] = tag
			return true
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = tag
	return false
}

// Reset invalidates all lines.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
}

// Indexer exposes a cache geometry's address decomposition — line tag and
// set index — without any cache state. It applies exactly the rounding rules
// of NewChecked (sets rounded down to a power of two), so Indexer and Cache
// built from the same geometry agree on every address: two addresses collide
// in the Cache iff the Indexer gives them the same tag or the same set. This
// is what lets callers reason about set occupancy analytically (e.g. prove a
// walk can never evict) instead of simulating.
type Indexer struct {
	lineShift uint
	ways      int
	setMask   uint64
}

// NewIndexer derives the address decomposition of a geometry. Like New, it
// panics on geometries gpu.Config.Validate would reject.
func NewIndexer(g gpu.CacheGeometry) Indexer {
	c := New(g)
	return Indexer{lineShift: c.lineShift, ways: c.ways, setMask: c.setMask}
}

// Tag returns the line tag of an address — equal tags mean the same cache
// line.
func (x Indexer) Tag(addr uint64) uint64 { return addr >> x.lineShift }

// Set returns the set index a tag maps to.
func (x Indexer) Set(tag uint64) int { return int(tag & x.setMask) }

// Ways returns the geometry's associativity.
func (x Indexer) Ways() int { return x.ways }

// NumSets returns the number of sets after power-of-two rounding.
func (x Indexer) NumSets() int { return int(x.setMask) + 1 }

// LinesTouchedInto returns the distinct line base addresses referenced by a
// set of byte addresses, ascending. This is the warp-level coalescing unit:
// each distinct line is one memory transaction. lineBytes must be a positive
// power of two (gpu.Config.Validate enforces it for every line and
// transaction size).
//
// The lines are appended into dst's storage (dst is truncated first), so
// per-access hot loops can reuse one buffer instead of allocating: pass the
// previous call's result re-sliced to [:0], or any scratch slice. The
// returned slice aliases dst's array when it fits.
//
// Lines are masked, not divided, out of the addresses. Lanes of a coalesced
// access arrive in ascending order, so runs of one line collapse as they
// are appended and the result is already sorted and distinct; only a lane
// that steps backwards sends the (short) line list through a sort.
func LinesTouchedInto(dst, addrs []uint64, lineBytes int) []uint64 {
	out := dst[:0]
	mask := ^uint64(lineBytes - 1)
	sorted := true
	for _, a := range addrs {
		ln := a & mask
		if n := len(out); n > 0 {
			if last := out[n-1]; ln == last {
				continue
			} else if ln < last {
				sorted = false
			}
		}
		out = append(out, ln)
	}
	if sorted {
		return out
	}
	SortSmall(out)
	return slices.Compact(out)
}

// SortSmall sorts a warp-sized slice in place by insertion. At a few dozen
// elements it beats a general-purpose sort by about twice on random input
// and is linear on the nearly-sorted input most warps produce.
func SortSmall(a []uint64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i
		for ; j > 0 && a[j-1] > v; j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
}
