package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpuhms/internal/gpu"
)

func smallGeom() gpu.CacheGeometry {
	return gpu.CacheGeometry{SizeBytes: 1024, LineBytes: 64, Ways: 4} // 4 sets
}

func TestColdMissThenHit(t *testing.T) {
	c := New(smallGeom())
	if c.Access(0x100) {
		t.Error("first access should miss")
	}
	if !c.Access(0x100) {
		t.Error("second access should hit")
	}
	if !c.Access(0x13f) {
		t.Error("same line should hit")
	}
	if c.Access(0x140) {
		t.Error("next line should miss")
	}
}

func TestLRUEviction(t *testing.T) {
	// 4 sets × 4 ways, 64B lines; set stride 256B. Five lines mapping to the
	// same set: the first must be evicted. A hit never evicts, so the
	// residency checks of one fill run back to back, the missing line last.
	addrs := []uint64{0, 256, 512, 768, 1024}
	fill := func() *Cache {
		c := New(smallGeom())
		for _, a := range addrs {
			c.Access(a)
		}
		return c
	}
	c := fill()
	for _, a := range addrs[1:] {
		if !c.Access(a) {
			t.Errorf("line %#x should be resident", a)
		}
	}
	if c.Access(0) {
		t.Error("LRU line should have been evicted")
	}
	// Touching 256 makes 512 the LRU victim for the next fill.
	c = fill()
	c.Access(256)
	c.Access(1280)
	if !c.Access(256) || c.Access(512) {
		t.Error("LRU order not respected after touch")
	}
}

func TestReset(t *testing.T) {
	c := New(smallGeom())
	c.Access(0)
	if !c.Access(0) {
		t.Fatal("second access should hit")
	}
	c.Reset()
	if c.Access(0) {
		t.Error("lines must be invalidated on reset")
	}
}

// Property: a working set no larger than one set's ways, confined to one
// set, hits forever after the first touch — regardless of access order.
func TestWorkingSetFitsAlwaysHits(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(smallGeom())
		// Four lines in set 1.
		lines := []uint64{64, 64 + 256, 64 + 512, 64 + 768}
		for _, a := range lines {
			c.Access(a)
		}
		for i := 0; i < 200; i++ {
			a := lines[r.Intn(len(lines))] + uint64(r.Intn(64))
			if !c.Access(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the first touch of every line misses, and an access repeated at
// once hits.
func TestCounterConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(gpu.CacheGeometry{SizeBytes: 4096, LineBytes: 128, Ways: 2})
		seen := make(map[uint64]bool)
		for i := 0; i < 500; i++ {
			a := uint64(r.Intn(1 << 16))
			if c.Access(a) && !seen[a/128] {
				return false
			}
			seen[a/128] = true
			if !c.Access(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNonPowerOfTwoSetsRoundsDown(t *testing.T) {
	// 3 sets worth of capacity rounds down to 2 sets; the cache must still
	// behave correctly.
	c := New(gpu.CacheGeometry{SizeBytes: 3 * 64 * 2, LineBytes: 64, Ways: 2})
	if c.Access(0) {
		t.Error("cold miss expected")
	}
	if !c.Access(0) {
		t.Error("hit expected")
	}
}

func TestNewPanicsOnDegenerateGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero-set geometry")
		}
	}()
	New(gpu.CacheGeometry{SizeBytes: 64, LineBytes: 64, Ways: 4})
}

func TestNewCheckedRejectsNonPowerOfTwoLines(t *testing.T) {
	if _, err := NewChecked(gpu.CacheGeometry{SizeBytes: 96 << 10, LineBytes: 96, Ways: 4}); err == nil {
		t.Error("96-byte lines accepted; tags are a shift and need a power of two")
	}
	if _, err := NewChecked(gpu.CacheGeometry{SizeBytes: 128 << 10, LineBytes: 128, Ways: 4}); err != nil {
		t.Errorf("128-byte lines rejected: %v", err)
	}
}

func TestLinesTouched(t *testing.T) {
	tests := []struct {
		name  string
		addrs []uint64
		line  int
		want  []uint64
	}{
		{"empty", nil, 128, nil},
		{"single", []uint64{130}, 128, []uint64{128}},
		{"coalesced warp", seq(0, 32, 4), 128, []uint64{0}},
		{"two lines", []uint64{0, 127, 128}, 128, []uint64{0, 128}},
		{"strided", []uint64{0, 256, 512}, 128, []uint64{0, 256, 512}},
		{"unsorted dup", []uint64{300, 10, 310, 20}, 128, []uint64{0, 256}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := LinesTouchedInto(nil, tc.addrs, tc.line)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func seq(base uint64, n int, stride uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)*stride
	}
	return out
}

// Property: LinesTouchedInto returns sorted, deduplicated, line-aligned
// addresses covering every input address.
func TestLinesTouchedProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(64)
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(r.Intn(1 << 14))
		}
		const line = 128
		got := LinesTouchedInto(make([]uint64, 3, 8), addrs, line)
		for i, l := range got {
			if l%line != 0 {
				return false
			}
			if i > 0 && got[i-1] >= l {
				return false
			}
		}
		for _, a := range addrs {
			found := false
			for _, l := range got {
				if a >= l && a < l+line {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSwizzle2DIdentityCases(t *testing.T) {
	// blockShift 0 or non-2D width: identity.
	if Swizzle2D(37, 0, 4) != 37 {
		t.Error("width 0 should be identity")
	}
	if Swizzle2D(37, 64, 0) != 37 {
		t.Error("shift 0 should be identity")
	}
}

func TestSwizzle2DTileLocality(t *testing.T) {
	// A 2x2 pixel window must land within one tile's contiguous range when
	// aligned, i.e. swizzled offsets within edge² of each other.
	const width, shift = 64, 4
	edge := int64(1) << shift
	x, y := int64(16), int64(32) // tile-aligned corner
	base := Swizzle2D(y*width+x, width, shift)
	for dy := int64(0); dy < 2; dy++ {
		for dx := int64(0); dx < 2; dx++ {
			s := Swizzle2D((y+dy)*width+(x+dx), width, shift)
			if s < base || s >= base+edge*edge {
				t.Errorf("(%d,%d) swizzled to %d, outside tile [%d,%d)",
					x+dx, y+dy, s, base, base+edge*edge)
			}
		}
	}
}

// Property: for tile-aligned widths the swizzle is a bijection on the array
// index range.
func TestSwizzle2DBijection(t *testing.T) {
	const width, height, shift = 64, 32, 4
	seen := make(map[int64]int64)
	for i := int64(0); i < width*height; i++ {
		s := Swizzle2D(i, width, shift)
		if s < 0 || s >= width*height {
			t.Fatalf("index %d swizzled out of range: %d", i, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("collision: %d and %d both swizzle to %d", prev, i, s)
		}
		seen[s] = i
	}
}

// Property: row-major neighbors within a tile stay adjacent after swizzle.
func TestSwizzle2DWithinTileRowAdjacency(t *testing.T) {
	const width, shift = 128, 4
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		edge := int64(1) << shift
		tx := int64(r.Intn(width / int(edge)))
		ty := int64(r.Intn(8))
		ox := int64(r.Intn(int(edge) - 1))
		oy := int64(r.Intn(int(edge)))
		x, y := tx*edge+ox, ty*edge+oy
		a := Swizzle2D(y*width+x, width, shift)
		b := Swizzle2D(y*width+x+1, width, shift)
		return b == a+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
