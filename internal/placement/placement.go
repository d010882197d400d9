// Package placement represents data placements — the assignment of each
// kernel array to one programmable memory space of the HMS — together with
// their legality rules, the address-assignment conventions of §III-E of the
// paper, and enumeration of the m^n placement search space.
package placement

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/trace"
)

// illegalf builds an error wrapping hmserr.ErrIllegalPlacement.
func illegalf(format string, args ...any) error {
	return hmserr.Wrap(hmserr.ErrIllegalPlacement, format, args...)
}

// capacityf builds an error wrapping hmserr.ErrCapacityExceeded (which
// itself chains onto ErrIllegalPlacement, so existing errors.Is checks on the
// broad sentinel keep matching capacity overflows).
func capacityf(format string, args ...any) error {
	return hmserr.Wrap(hmserr.ErrCapacityExceeded, format, args...)
}

// Placement assigns a memory space to every array of a trace, indexed by
// trace.ArrayID.
type Placement struct {
	Spaces []gpu.MemSpace
}

// New returns a placement with every array in global memory (the common
// default for CUDA kernels, and the usual sample placement).
func New(n int) *Placement {
	return &Placement{Spaces: make([]gpu.MemSpace, n)}
}

// Of returns the memory space of the array. Out-of-range IDs report global
// memory (the placement default) instead of panicking; use SpaceOf when the
// caller needs the range violation surfaced.
func (p *Placement) Of(id trace.ArrayID) gpu.MemSpace {
	if int(id) < 0 || int(id) >= len(p.Spaces) {
		return gpu.Global
	}
	return p.Spaces[id]
}

// SpaceOf returns the memory space of the array, or an error wrapping
// hmserr.ErrIllegalPlacement when id is out of range.
func (p *Placement) SpaceOf(id trace.ArrayID) (gpu.MemSpace, error) {
	if int(id) < 0 || int(id) >= len(p.Spaces) {
		return gpu.Global, hmserr.Wrap(hmserr.ErrIllegalPlacement,
			"array ID %d out of range [0,%d)", id, len(p.Spaces))
	}
	return p.Spaces[id], nil
}

// Clone returns an independent copy.
func (p *Placement) Clone() *Placement {
	cp := make([]gpu.MemSpace, len(p.Spaces))
	copy(cp, p.Spaces)
	return &Placement{Spaces: cp}
}

// WithMove returns a copy with one array moved to a new space. It is the
// sample→target transformation of the paper: "pick a data array as the
// target data object, then predict the kernel performance if we move the
// array to a new data placement". Out-of-range IDs yield an unchanged copy;
// use WithMoveChecked when the caller needs the violation surfaced.
func (p *Placement) WithMove(id trace.ArrayID, to gpu.MemSpace) *Placement {
	cp := p.Clone()
	if int(id) >= 0 && int(id) < len(cp.Spaces) {
		cp.Spaces[id] = to
	}
	return cp
}

// WithMoveChecked is WithMove with a typed error for out-of-range IDs.
func (p *Placement) WithMoveChecked(id trace.ArrayID, to gpu.MemSpace) (*Placement, error) {
	if int(id) < 0 || int(id) >= len(p.Spaces) {
		return nil, hmserr.Wrap(hmserr.ErrIllegalPlacement,
			"move of array ID %d out of range [0,%d)", id, len(p.Spaces))
	}
	return p.WithMove(id, to), nil
}

// Equal reports whether two placements assign identical spaces.
func (p *Placement) Equal(q *Placement) bool {
	if len(p.Spaces) != len(q.Spaces) {
		return false
	}
	for i := range p.Spaces {
		if p.Spaces[i] != q.Spaces[i] {
			return false
		}
	}
	return true
}

// String renders the placement in the paper's Table IV notation, e.g.
// "a:G,b:2T".
func (p *Placement) String() string { return p.Format(nil) }

// Format renders the placement with array names from the trace when
// available.
func (p *Placement) Format(t *trace.Trace) string {
	var b strings.Builder
	for i, s := range p.Spaces {
		if i > 0 {
			b.WriteByte(',')
		}
		if t != nil && i < len(t.Arrays) {
			b.WriteString(t.Arrays[i].Name)
		} else {
			fmt.Fprintf(&b, "a%d", i)
		}
		b.WriteByte(':')
		b.WriteString(s.String())
	}
	return b.String()
}

// Parse reads a placement spec of the form "name:S,name:S,…" against a
// trace's arrays; unspecified arrays default to global memory.
func Parse(t *trace.Trace, spec string) (*Placement, error) {
	p := New(len(t.Arrays))
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(kv) != 2 {
			return nil, illegalf("bad element %q (want name:space)", part)
		}
		id, ok := t.ArrayByName(kv[0])
		if !ok {
			return nil, illegalf("kernel %s has no array %q", t.Kernel, kv[0])
		}
		sp, err := gpu.ParseSpace(kv[1])
		if err != nil {
			// Classify as an illegal-placement error so callers (and the
			// service's status mapping) treat a bad spec as client error.
			return nil, illegalf("%v", err)
		}
		p.Spaces[id] = sp
	}
	return p, nil
}

// Check verifies the placement is legal for the trace on the architecture:
// read-only constraint for constant/texture, 2D texture requires a declared
// 2D shape, and per-space capacity (constant total, shared per block, and —
// when cfg bounds the device DRAM — the aggregate bytes of global- and
// texture-placed arrays). Capacity violations wrap
// hmserr.ErrCapacityExceeded, which chains onto ErrIllegalPlacement.
func Check(t *trace.Trace, p *Placement, cfg *gpu.Config) error {
	if len(p.Spaces) != len(t.Arrays) {
		return illegalf("%d spaces for %d arrays", len(p.Spaces), len(t.Arrays))
	}
	constBytes, sharedBytes, dramBytes := 0, 0, 0
	remoteConstBytes, remoteDramBytes := 0, 0
	for i, sp := range p.Spaces {
		a := t.Arrays[i]
		if !sp.Writable() && !a.ReadOnly {
			return illegalf("array %s is written but placed in read-only %s",
				a.Name, sp.LongString())
		}
		if sp.Remote() && !cfg.HasRemote() {
			return illegalf("array %s placed in %s but %s has no remote stacks",
				a.Name, sp.LongString(), cfg.Name)
		}
		switch sp.Base() {
		case gpu.Texture2D:
			if !a.Is2D() {
				return illegalf("array %s has no 2D shape for 2D texture", a.Name)
			}
		}
		switch sp {
		case gpu.Texture2D, gpu.Global, gpu.Texture1D:
			dramBytes += a.Bytes()
		case gpu.Constant:
			constBytes += a.Bytes()
		case gpu.Shared:
			sharedBytes += SharedFootprint(t, trace.ArrayID(i))
		case gpu.ConstantRemote:
			remoteConstBytes += a.Bytes()
		default: // GlobalRemote, Texture1DRemote, Texture2DRemote
			remoteDramBytes += a.Bytes()
		}
	}
	if constBytes > cfg.ConstantBytes {
		return capacityf("constant memory overflow: %d > %d bytes",
			constBytes, cfg.ConstantBytes)
	}
	if sharedBytes > cfg.SharedBytesPerSM {
		return capacityf("shared memory overflow: %d > %d bytes per block",
			sharedBytes, cfg.SharedBytesPerSM)
	}
	if limit := cfg.CapacityBytes(gpu.Global); limit >= 0 && dramBytes > limit {
		return capacityf("device memory overflow: %d > %d bytes", dramBytes, limit)
	}
	if remoteConstBytes > cfg.Interposer.RemoteConstantBytes {
		return capacityf("remote constant memory overflow: %d > %d bytes",
			remoteConstBytes, cfg.Interposer.RemoteConstantBytes)
	}
	if remoteDramBytes > cfg.Interposer.RemoteGlobalBytes {
		return capacityf("remote device memory overflow: %d > %d bytes",
			remoteDramBytes, cfg.Interposer.RemoteGlobalBytes)
	}
	return nil
}

// SharedFootprint returns the per-block bytes an array occupies when placed
// in shared memory. Arrays whose footprint exceeds one block's natural share
// are staged as per-block tiles (the paper conservatively rewrites the index
// to a block-local one); the tile is the array's footprint divided across
// blocks, rounded up to the bank width.
func SharedFootprint(t *trace.Trace, id trace.ArrayID) int {
	a := t.Arrays[id]
	blocks := t.Launch.Blocks
	if blocks < 1 {
		blocks = 1
	}
	per := (a.Bytes() + blocks - 1) / blocks
	if per < a.Type.Bytes() {
		per = a.Type.Bytes()
	}
	// Round to 4-byte bank words.
	return (per + 3) &^ 3
}

// SharedStagingBytes returns the total bytes copied from global to shared
// memory before the kernel proper runs: every shared-placed array is staged
// once per block. The paper estimates this initialization "based on memory
// bandwidth and data size instead of counting instructions" (§III-B); both
// the simulator and the models divide this quantity by the staging bandwidth.
func SharedStagingBytes(t *trace.Trace, p *Placement) float64 {
	var bytes float64
	for i := range t.Arrays {
		if p.Spaces[i] == gpu.Shared {
			bytes += float64(SharedFootprint(t, trace.ArrayID(i)) * t.Launch.Blocks)
		}
	}
	return bytes
}

// Options returns the legal memory spaces for one array (ignoring aggregate
// capacity, which Check enforces for the whole placement). On chiplet
// architectures (cfg.HasRemote()) each off-chip space additionally appears
// in its remote variant, appended after the local options so existing
// mixed-radix indices keep their meaning as a prefix.
func Options(t *trace.Trace, id trace.ArrayID, cfg *gpu.Config) []gpu.MemSpace {
	a := t.Arrays[id]
	out := []gpu.MemSpace{gpu.Global}
	if SharedFootprint(t, id) <= cfg.SharedBytesPerSM {
		out = append(out, gpu.Shared)
	}
	if a.ReadOnly {
		if a.Bytes() <= cfg.ConstantBytes {
			out = append(out, gpu.Constant)
		}
		out = append(out, gpu.Texture1D)
		if a.Is2D() {
			out = append(out, gpu.Texture2D)
		}
	}
	if cfg.HasRemote() {
		if a.Bytes() <= cfg.Interposer.RemoteGlobalBytes {
			out = append(out, gpu.GlobalRemote)
		}
		if a.ReadOnly {
			if a.Bytes() <= cfg.Interposer.RemoteConstantBytes {
				out = append(out, gpu.ConstantRemote)
			}
			if a.Bytes() <= cfg.Interposer.RemoteGlobalBytes {
				out = append(out, gpu.Texture1DRemote)
				if a.Is2D() {
					out = append(out, gpu.Texture2DRemote)
				}
			}
		}
	}
	return out
}

// EnumerateSeq streams every legal placement of the trace's arrays, in a
// deterministic order (lexicographic by array ID and space — ascending raw
// index of the Space), calling yield for each one. The yielded placement is
// scratch space owned by the enumerator — it is only valid for the duration
// of the callback; callers keeping a candidate must Clone it. Returning false
// from yield stops the enumeration early.
//
// Streaming keeps the m^n exploration space of the paper's introduction out
// of memory: a budgeted or top-K consumer holds O(K) placements instead of
// the full space. A zero-array trace yields nothing: it has no placement
// decisions to rank.
func EnumerateSeq(t *trace.Trace, cfg *gpu.Config, yield func(*Placement) bool) {
	s := NewSpace(t, cfg)
	s.walk(context.Background(), 0, s.raw, false, func(_ int64, _ int, p *Placement) bool { return yield(p) })
}

// CountLegal returns the size of the legal placement space of a trace — the
// denominator of an "evaluated N of M candidates" progress report. It is
// Space.Count without a deadline.
func CountLegal(t *trace.Trace, cfg *gpu.Config) int {
	n, _ := NewSpace(t, cfg).Count(context.Background())
	return n
}

// Enumerate materializes the EnumerateSeq stream. Prefer EnumerateSeq for
// kernels with many arrays, where m^n placements may not fit in memory.
func Enumerate(t *trace.Trace, cfg *gpu.Config) []*Placement {
	var out []*Placement
	EnumerateSeq(t, cfg, func(p *Placement) bool {
		out = append(out, p.Clone())
		return true
	})
	return out
}

// Moves returns single-array moves from the sample placement, one target
// placement per (array, legal space ≠ current). This matches the paper's
// evaluation style ("kernel[array(G→T)]").
func Moves(t *trace.Trace, sample *Placement, cfg *gpu.Config) []*Placement {
	var out []*Placement
	NewSpace(t, cfg).Neighbors(sample, 0, len(t.Arrays), func(_ int64, _ int, next *Placement) {
		out = append(out, next)
	})
	sort.Slice(out, func(a, b int) bool { return out[a].String() < out[b].String() })
	return out
}
