// Package trace represents GPU kernel executions as placement-neutral
// warp-level instruction traces.
//
// The paper instruments the sample data placement with SASSI to obtain an
// instruction trace and a memory trace, then *transforms* the memory trace
// for each target placement (accommodating addressing-mode differences)
// instead of re-running the kernel. This package makes that transformation
// trivial by construction: memory references are recorded as
// (array, element index per lane) rather than raw addresses. A data placement
// later binds each array to a memory space and a base address, at which point
// indices resolve to addresses.
package trace

import (
	"context"
	"fmt"
	"sort"

	"gpuhms/internal/hmserr"
)

// ArrayID names a data object (a kernel array) within a trace.
type ArrayID int

// DType is the element type of an array, used by the addressing-mode
// analysis (the instruction count to form an effective address depends on
// the element size and memory space).
type DType uint8

const (
	F32 DType = iota // 32-bit float
	F64              // 64-bit float
	I32              // 32-bit integer
	U8               // byte
)

// Bytes returns the element size of the data type.
func (d DType) Bytes() int {
	switch d {
	case F64:
		return 8
	case U8:
		return 1
	default:
		return 4
	}
}

// String returns the CUDA-style type name.
func (d DType) String() string {
	switch d {
	case F32:
		return "float"
	case F64:
		return "double"
	case I32:
		return "int"
	case U8:
		return "uchar"
	}
	return fmt.Sprintf("DType(%d)", uint8(d))
}

// Array declares a kernel data object whose placement can be varied.
type Array struct {
	Name  string
	Type  DType
	Len   int // elements
	Width int // for logically-2D arrays: row length in elements; 0 for 1D
	// ReadOnly marks arrays the kernel never stores to. Only read-only
	// arrays may be placed in constant or texture memory.
	ReadOnly bool
}

// Bytes returns the array footprint in bytes.
func (a Array) Bytes() int { return a.Len * a.Type.Bytes() }

// Is2D reports whether the array has a declared 2D shape.
func (a Array) Is2D() bool { return a.Width > 0 }

// Height returns the number of rows for a 2D array (Len/Width).
func (a Array) Height() int {
	if a.Width == 0 {
		return 1
	}
	return a.Len / a.Width
}

// Op classifies a warp-level instruction.
type Op uint8

const (
	OpInt    Op = iota // integer ALU
	OpFP32             // single-precision floating point
	OpFP64             // double-precision floating point (two-cycle issue)
	OpSFU              // special function unit (rsqrt, exp, ...)
	OpLoad             // load from a placed array
	OpStore            // store to a placed array
	OpSync             // barrier / __syncthreads
	OpBranch           // control flow
	OpAtomic           // read-modify-write on a placed array; lanes hitting
	// the same address serialize (the paper's replay cause (6))

	// NumOps is the number of op classes.
	NumOps = 9
)

// String names the op class.
func (o Op) String() string {
	switch o {
	case OpInt:
		return "INT"
	case OpFP32:
		return "FP32"
	case OpFP64:
		return "FP64"
	case OpSFU:
		return "SFU"
	case OpLoad:
		return "LD"
	case OpStore:
		return "ST"
	case OpSync:
		return "BAR"
	case OpBranch:
		return "BRA"
	case OpAtomic:
		return "ATOM"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsMem reports whether the op references a placed array.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore || o == OpAtomic }

// Inactive marks a lane that does not participate in a memory access.
const Inactive int64 = -1

// Inst is one warp-level instruction. Compute instructions may carry
// Count > 1 to represent a run of identical ops compactly. Memory
// instructions carry the referenced array and one element index per lane
// (Inactive for masked-off lanes).
type Inst struct {
	Op    Op
	Count int     // repetition for compute ops; 1 for memory ops
	Array ArrayID // valid when Op.IsMem()
	Index []int64 // len == WarpSize when Op.IsMem(); element indices
}

// ActiveLanes returns the number of participating lanes of a memory
// instruction.
func (in *Inst) ActiveLanes() int {
	n := 0
	for _, ix := range in.Index {
		if ix != Inactive {
			n++
		}
	}
	return n
}

// WarpTrace is the instruction stream of one warp.
type WarpTrace struct {
	Block int // thread block ID
	Warp  int // warp ID within the block
	Inst  []Inst
}

// Launch describes the kernel launch configuration.
type Launch struct {
	Blocks          int
	ThreadsPerBlock int
	WarpSize        int
}

// WarpsPerBlock returns ceil(ThreadsPerBlock / WarpSize).
func (l Launch) WarpsPerBlock() int {
	return (l.ThreadsPerBlock + l.WarpSize - 1) / l.WarpSize
}

// TotalWarps returns the total warp count of the launch.
func (l Launch) TotalWarps() int { return l.Blocks * l.WarpsPerBlock() }

// Trace is a complete placement-neutral kernel execution record.
type Trace struct {
	Kernel string
	Launch Launch
	Arrays []Array
	Warps  []WarpTrace
}

// Array returns the declaration for id.
func (t *Trace) Array(id ArrayID) Array { return t.Arrays[id] }

// ArrayByName finds an array by name.
func (t *Trace) ArrayByName(name string) (ArrayID, bool) {
	for i, a := range t.Arrays {
		if a.Name == name {
			return ArrayID(i), true
		}
	}
	return 0, false
}

// maxArrayBytes bounds a single array's footprint (1 TiB), far beyond any
// modeled GPU; it keeps hostile traces from overflowing byte arithmetic.
const maxArrayBytes = 1 << 40

// invalidf builds a validation error wrapping hmserr.ErrInvalidTrace.
func invalidf(format string, args ...any) error {
	return hmserr.Wrap(hmserr.ErrInvalidTrace, format, args...)
}

// Validate checks internal consistency: arrays have unique names and sane
// positive footprints, memory instructions have per-lane indices of the
// right length and in range, compute instructions have positive counts,
// and every barrier record has Count 1 (one barrier, one issue slot).
// All failures wrap hmserr.ErrInvalidTrace.
func (t *Trace) Validate() error {
	return t.ValidateContext(context.Background())
}

// validateCtxInterval is how many warps ValidateContext checks between
// context polls.
const validateCtxInterval = 64

// ValidateContext is Validate with cancellation: validating a large trace
// takes tens of milliseconds, so the warp loop polls the context every
// validateCtxInterval warps and returns ctx.Err() once it is done.
func (t *Trace) ValidateContext(ctx context.Context) error {
	if t.Launch.WarpSize <= 0 || t.Launch.WarpSize > 1024 {
		return invalidf("trace %s: warp size %d", t.Kernel, t.Launch.WarpSize)
	}
	if t.Launch.Blocks < 0 || t.Launch.ThreadsPerBlock < 0 {
		return invalidf("trace %s: launch %d blocks x %d threads",
			t.Kernel, t.Launch.Blocks, t.Launch.ThreadsPerBlock)
	}
	names := make(map[string]bool, len(t.Arrays))
	for i, a := range t.Arrays {
		if a.Name == "" {
			return invalidf("trace %s: array %d has no name", t.Kernel, i)
		}
		if names[a.Name] {
			return invalidf("trace %s: duplicate array name %q", t.Kernel, a.Name)
		}
		names[a.Name] = true
		if a.Len <= 0 || int64(a.Len) > maxArrayBytes/int64(a.Type.Bytes()) {
			return invalidf("trace %s: array %s has length %d", t.Kernel, a.Name, a.Len)
		}
		if a.Width < 0 || a.Width > a.Len {
			return invalidf("trace %s: array %s has width %d for length %d",
				t.Kernel, a.Name, a.Width, a.Len)
		}
	}
	for wi := range t.Warps {
		if wi%validateCtxInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for ii := range t.Warps[wi].Inst {
			in := &t.Warps[wi].Inst[ii]
			if in.Op.IsMem() {
				if len(in.Index) != t.Launch.WarpSize {
					return invalidf("trace %s: warp %d inst %d: %d lane indices, warp size %d",
						t.Kernel, wi, ii, len(in.Index), t.Launch.WarpSize)
				}
				if int(in.Array) < 0 || int(in.Array) >= len(t.Arrays) {
					return invalidf("trace %s: warp %d inst %d: array %d out of range",
						t.Kernel, wi, ii, in.Array)
				}
				a := t.Arrays[in.Array]
				for lane, ix := range in.Index {
					if ix == Inactive {
						continue
					}
					if ix < 0 || ix >= int64(a.Len) {
						return invalidf("trace %s: warp %d inst %d lane %d: index %d out of [0,%d)",
							t.Kernel, wi, ii, lane, ix, a.Len)
					}
				}
				if (in.Op == OpStore || in.Op == OpAtomic) && a.ReadOnly {
					return invalidf("trace %s: %s to read-only array %s", t.Kernel, in.Op, a.Name)
				}
			} else if in.Count <= 0 {
				return invalidf("trace %s: warp %d inst %d: compute count %d",
					t.Kernel, wi, ii, in.Count)
			} else if in.Op == OpSync && in.Count != 1 {
				return invalidf("trace %s: warp %d inst %d: barrier count %d, want 1",
					t.Kernel, wi, ii, in.Count)
			}
		}
	}
	return nil
}

// Stats aggregates instruction counts over a trace.
type Stats struct {
	PerOp        [NumOps]int64     // executed instructions by op class
	LoadsByArray map[ArrayID]int64 // warp-level load instructions per array
	StoresByArr  map[ArrayID]int64 // warp-level store instructions per array
	Warps        int
}

// Executed returns total executed warp instructions (compute counts expanded,
// excluding addressing-mode instructions, which are placement-dependent).
func (s *Stats) Executed() int64 {
	var n int64
	for _, c := range s.PerOp {
		n += c
	}
	return n
}

// MemInsts returns warp-level memory instructions (loads + stores).
func (s *Stats) MemInsts() int64 { return s.PerOp[OpLoad] + s.PerOp[OpStore] }

// Accesses returns loads+stores for one array.
func (s *Stats) Accesses(id ArrayID) int64 {
	return s.LoadsByArray[id] + s.StoresByArr[id]
}

// ComputeStats scans the trace once and aggregates counts.
func ComputeStats(t *Trace) *Stats {
	s := &Stats{
		LoadsByArray: make(map[ArrayID]int64),
		StoresByArr:  make(map[ArrayID]int64),
		Warps:        len(t.Warps),
	}
	for wi := range t.Warps {
		for ii := range t.Warps[wi].Inst {
			in := &t.Warps[wi].Inst[ii]
			if in.Op.IsMem() {
				s.PerOp[in.Op]++
				if in.Op == OpLoad {
					s.LoadsByArray[in.Array]++
				} else {
					s.StoresByArr[in.Array]++
				}
			} else {
				s.PerOp[in.Op] += int64(in.Count)
			}
		}
	}
	return s
}

// ArraysSortedBySize returns array IDs ordered by descending footprint,
// breaking ties by name; useful for deterministic placement heuristics.
func (t *Trace) ArraysSortedBySize() []ArrayID {
	ids := make([]ArrayID, len(t.Arrays))
	for i := range ids {
		ids[i] = ArrayID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		ai, aj := t.Arrays[ids[i]], t.Arrays[ids[j]]
		if ai.Bytes() != aj.Bytes() {
			return ai.Bytes() > aj.Bytes()
		}
		return ai.Name < aj.Name
	})
	return ids
}
