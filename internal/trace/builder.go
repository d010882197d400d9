package trace

import "gpuhms/internal/hmserr"

// Builder incrementally constructs a Trace. It is the API workload
// generators use to emit per-warp instruction streams.
//
// Emission errors (bad array lengths, wrong lane counts) do not panic:
// the builder records the first one and Build returns it, so fluent
// emission chains stay uncluttered while hostile or buggy generators are
// still rejected at the boundary.
type Builder struct {
	t        *Trace
	warpSize int
	err      error
}

// NewBuilder starts a trace for the named kernel.
func NewBuilder(kernel string, launch Launch) *Builder {
	if launch.WarpSize == 0 {
		launch.WarpSize = 32
	}
	return &Builder{
		t:        &Trace{Kernel: kernel, Launch: launch},
		warpSize: launch.WarpSize,
	}
}

// fail records the first emission error; later calls keep it.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = hmserr.Wrap(hmserr.ErrInvalidTrace, format, args...)
	}
}

// Err returns the first emission error recorded so far.
func (b *Builder) Err() error { return b.err }

// DeclareArray registers a data object and returns its ID.
func (b *Builder) DeclareArray(a Array) ArrayID {
	if a.Len <= 0 {
		b.fail("array %s has length %d", a.Name, a.Len)
	}
	b.t.Arrays = append(b.t.Arrays, a)
	return ArrayID(len(b.t.Arrays) - 1)
}

// Warp opens the instruction stream of one warp. Streams may be built in any
// order; the builder appends them as opened.
func (b *Builder) Warp(block, warp int) *WarpBuilder {
	b.t.Warps = append(b.t.Warps, WarpTrace{Block: block, Warp: warp})
	return &WarpBuilder{
		w:        &b.t.Warps[len(b.t.Warps)-1],
		warpSize: b.warpSize,
		arrays:   b.t.Arrays,
		owner:    b,
	}
}

// Build finalizes and validates the trace. The first emission error, if
// any, takes precedence over whole-trace validation.
func (b *Builder) Build() (*Trace, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.t.Validate(); err != nil {
		return nil, err
	}
	return b.t, nil
}

// MustBuild is Build for generators with statically-correct emission.
func (b *Builder) MustBuild() *Trace {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// WarpBuilder appends instructions to one warp stream.
type WarpBuilder struct {
	w        *WarpTrace
	warpSize int
	arrays   []Array
	owner    *Builder
}

func (w *WarpBuilder) compute(op Op, n int) *WarpBuilder {
	if n <= 0 {
		return w
	}
	// Merge with a preceding identical compute op to keep traces compact.
	if k := len(w.w.Inst); k > 0 && w.w.Inst[k-1].Op == op && !op.IsMem() {
		w.w.Inst[k-1].Count += n
		return w
	}
	w.w.Inst = append(w.w.Inst, Inst{Op: op, Count: n})
	return w
}

// Int emits n integer ALU instructions.
func (w *WarpBuilder) Int(n int) *WarpBuilder { return w.compute(OpInt, n) }

// FP32 emits n single-precision FP instructions.
func (w *WarpBuilder) FP32(n int) *WarpBuilder { return w.compute(OpFP32, n) }

// FP64 emits n double-precision FP instructions.
func (w *WarpBuilder) FP64(n int) *WarpBuilder { return w.compute(OpFP64, n) }

// SFU emits n special-function instructions.
func (w *WarpBuilder) SFU(n int) *WarpBuilder { return w.compute(OpSFU, n) }

// Branch emits n control-flow instructions.
func (w *WarpBuilder) Branch(n int) *WarpBuilder { return w.compute(OpBranch, n) }

// Sync emits a barrier. Every barrier is its own record of Count 1 — two
// barriers in a row are two records, never one merged run.
func (w *WarpBuilder) Sync() *WarpBuilder {
	w.w.Inst = append(w.w.Inst, Inst{Op: OpSync, Count: 1})
	return w
}

func (w *WarpBuilder) mem(op Op, a ArrayID, idx []int64) *WarpBuilder {
	if len(idx) != w.warpSize {
		w.owner.fail("memory op with %d lane indices, warp size %d",
			len(idx), w.warpSize)
		return w
	}
	cp := make([]int64, len(idx))
	copy(cp, idx)
	w.w.Inst = append(w.w.Inst, Inst{Op: op, Count: 1, Array: a, Index: cp})
	return w
}

// Load emits a warp load of array a with the given per-lane element indices
// (Inactive for masked lanes).
func (w *WarpBuilder) Load(a ArrayID, idx []int64) *WarpBuilder {
	return w.mem(OpLoad, a, idx)
}

// Store emits a warp store.
func (w *WarpBuilder) Store(a ArrayID, idx []int64) *WarpBuilder {
	return w.mem(OpStore, a, idx)
}

// Atomic emits a warp read-modify-write; lanes addressing the same element
// serialize (the paper's replay cause (6)).
func (w *WarpBuilder) Atomic(a ArrayID, idx []int64) *WarpBuilder {
	return w.mem(OpAtomic, a, idx)
}

// LoadCoalesced emits a load where lane L accesses element base+L for lanes
// [0, active).
func (w *WarpBuilder) LoadCoalesced(a ArrayID, base int64, active int) *WarpBuilder {
	return w.mem(OpLoad, a, Coalesced(w.warpSize, base, active))
}

// StoreCoalesced is the store counterpart of LoadCoalesced.
func (w *WarpBuilder) StoreCoalesced(a ArrayID, base int64, active int) *WarpBuilder {
	return w.mem(OpStore, a, Coalesced(w.warpSize, base, active))
}

// LoadBroadcast emits a load where every active lane reads the same element,
// the access pattern constant memory is optimized for.
func (w *WarpBuilder) LoadBroadcast(a ArrayID, elem int64, active int) *WarpBuilder {
	idx := make([]int64, w.warpSize)
	for l := range idx {
		if l < active {
			idx[l] = elem
		} else {
			idx[l] = Inactive
		}
	}
	return w.mem(OpLoad, a, idx)
}

// LoadStrided emits a load where lane L accesses base + L*stride.
func (w *WarpBuilder) LoadStrided(a ArrayID, base, stride int64, active int) *WarpBuilder {
	idx := make([]int64, w.warpSize)
	for l := range idx {
		if l < active {
			idx[l] = base + int64(l)*stride
		} else {
			idx[l] = Inactive
		}
	}
	return w.mem(OpLoad, a, idx)
}

// StoreStrided is the store counterpart of LoadStrided.
func (w *WarpBuilder) StoreStrided(a ArrayID, base, stride int64, active int) *WarpBuilder {
	idx := make([]int64, w.warpSize)
	for l := range idx {
		if l < active {
			idx[l] = base + int64(l)*stride
		} else {
			idx[l] = Inactive
		}
	}
	return w.mem(OpStore, a, idx)
}

// Coalesced builds a unit-stride index vector: lane L gets base+L for
// L < active, Inactive otherwise.
func Coalesced(warpSize int, base int64, active int) []int64 {
	idx := make([]int64, warpSize)
	for l := range idx {
		if l < active {
			idx[l] = base + int64(l)
		} else {
			idx[l] = Inactive
		}
	}
	return idx
}
