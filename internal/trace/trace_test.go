package trace

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gpuhms/internal/hmserr"
)

func TestDTypeBytes(t *testing.T) {
	for dt, want := range map[DType]int{F32: 4, F64: 8, I32: 4, U8: 1} {
		if got := dt.Bytes(); got != want {
			t.Errorf("%s.Bytes() = %d, want %d", dt, got, want)
		}
	}
}

func TestArrayGeometry(t *testing.T) {
	a := Array{Name: "m", Type: F32, Len: 64 * 32, Width: 64}
	if a.Bytes() != 8192 {
		t.Errorf("bytes = %d", a.Bytes())
	}
	if !a.Is2D() || a.Height() != 32 {
		t.Errorf("2D geometry: is2D=%v height=%d", a.Is2D(), a.Height())
	}
	b := Array{Name: "v", Type: F64, Len: 10}
	if b.Is2D() || b.Height() != 1 {
		t.Errorf("1D geometry: is2D=%v height=%d", b.Is2D(), b.Height())
	}
}

func TestOpClassification(t *testing.T) {
	if !OpLoad.IsMem() || !OpStore.IsMem() {
		t.Error("loads/stores are memory ops")
	}
	for _, op := range []Op{OpInt, OpFP32, OpFP64, OpSFU, OpSync, OpBranch} {
		if op.IsMem() {
			t.Errorf("%s should not be a memory op", op)
		}
	}
}

func TestLaunchMath(t *testing.T) {
	l := Launch{Blocks: 10, ThreadsPerBlock: 100, WarpSize: 32}
	if l.WarpsPerBlock() != 4 {
		t.Errorf("warps per block = %d (ceil(100/32))", l.WarpsPerBlock())
	}
	if l.TotalWarps() != 40 {
		t.Errorf("total warps = %d", l.TotalWarps())
	}
}

func buildSmall(t *testing.T) *Trace {
	t.Helper()
	b := NewBuilder("k", Launch{Blocks: 2, ThreadsPerBlock: 64, WarpSize: 32})
	a := b.DeclareArray(Array{Name: "a", Type: F32, Len: 256, ReadOnly: true})
	o := b.DeclareArray(Array{Name: "o", Type: F32, Len: 256})
	for blk := 0; blk < 2; blk++ {
		for w := 0; w < 2; w++ {
			wb := b.Warp(blk, w)
			wb.Int(2).Branch(1)
			wb.LoadCoalesced(a, int64(blk*64+w*32), 32)
			wb.FP32(3)
			wb.StoreCoalesced(o, int64(blk*64+w*32), 32)
			wb.Sync()
		}
	}
	return b.MustBuild()
}

func TestBuilderProducesValidTrace(t *testing.T) {
	tr := buildSmall(t)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Warps) != 4 {
		t.Errorf("warps = %d", len(tr.Warps))
	}
}

// TestValidateContextCanceled checks that validation stops on a canceled
// context even when the trace itself is valid.
func TestValidateContextCanceled(t *testing.T) {
	tr := buildSmall(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tr.ValidateContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context: got %v, want context.Canceled", err)
	}
	if err := tr.ValidateContext(context.Background()); err != nil {
		t.Errorf("live context: %v", err)
	}
}

// cancelAfterFirstPoll is a context that is live on its first Err() call and
// canceled from the second on.
type cancelAfterFirstPoll struct {
	context.Context
	polls int
}

func (c *cancelAfterFirstPoll) Err() error {
	c.polls++
	if c.polls > 1 {
		return context.Canceled
	}
	return nil
}

// TestValidateContextPollsDuringWarps checks that validation keeps polling
// the context while it walks the warps, not only on entry: a context
// canceled after the first poll stops a trace of more than
// validateCtxInterval warps at the second poll.
func TestValidateContextPollsDuringWarps(t *testing.T) {
	const blocks = 3 * validateCtxInterval
	b := NewBuilder("k", Launch{Blocks: blocks, ThreadsPerBlock: 32, WarpSize: 32})
	for blk := 0; blk < blocks; blk++ {
		b.Warp(blk, 0).Int(1)
	}
	tr := b.MustBuild()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfterFirstPoll{Context: context.Background()}
	if err := tr.ValidateContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled after first poll: got %v, want context.Canceled", err)
	}
	if ctx.polls != 2 {
		t.Errorf("polls = %d, want 2 (stop at the first poll after cancellation)", ctx.polls)
	}
}

func TestBuilderMergesComputeRuns(t *testing.T) {
	b := NewBuilder("k", Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	wb := b.Warp(0, 0)
	wb.Int(2).Int(3).FP32(1).FP32(1)
	tr := b.MustBuild()
	insts := tr.Warps[0].Inst
	if len(insts) != 2 {
		t.Fatalf("runs not merged: %d insts", len(insts))
	}
	if insts[0].Op != OpInt || insts[0].Count != 5 {
		t.Errorf("int run: %+v", insts[0])
	}
	if insts[1].Op != OpFP32 || insts[1].Count != 2 {
		t.Errorf("fp run: %+v", insts[1])
	}
}

func TestBuilderKeepsBarriersApart(t *testing.T) {
	b := NewBuilder("k", Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	b.Warp(0, 0).Sync().Sync()
	tr := b.MustBuild()
	insts := tr.Warps[0].Inst
	if len(insts) != 2 {
		t.Fatalf("two barriers built %d records: %+v", len(insts), insts)
	}
	for i, in := range insts {
		if in.Op != OpSync || in.Count != 1 {
			t.Errorf("record %d: %+v, want one barrier", i, in)
		}
	}
}

func TestBuilderCopiesIndexSlices(t *testing.T) {
	b := NewBuilder("k", Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	a := b.DeclareArray(Array{Name: "a", Type: F32, Len: 64, ReadOnly: true})
	idx := make([]int64, 32)
	wb := b.Warp(0, 0)
	wb.Load(a, idx)
	idx[0] = 63 // mutate after emission
	tr := b.MustBuild()
	if tr.Lanes(&tr.Warps[0].Inst[0], nil)[0] != 0 {
		t.Error("builder must copy index slices")
	}
}

func TestValidateCatchesBadTraces(t *testing.T) {
	mk := func() (*Builder, ArrayID) {
		b := NewBuilder("k", Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
		a := b.DeclareArray(Array{Name: "a", Type: F32, Len: 16, ReadOnly: true})
		return b, a
	}

	t.Run("index out of range", func(t *testing.T) {
		b, a := mk()
		idx := make([]int64, 32)
		idx[5] = 16 // == Len
		b.Warp(0, 0).Load(a, idx)
		if _, err := b.Build(); err == nil {
			t.Error("expected range error")
		}
	})
	t.Run("store to read-only", func(t *testing.T) {
		b, a := mk()
		b.Warp(0, 0).Store(a, make([]int64, 32))
		if _, err := b.Build(); err == nil {
			t.Error("expected read-only error")
		}
	})
	t.Run("wrong lane count fails at Build", func(t *testing.T) {
		b, a := mk()
		b.Warp(0, 0).Load(a, make([]int64, 16))
		if _, err := b.Build(); err == nil {
			t.Error("expected lane-count error")
		} else if b.Err() == nil {
			t.Error("builder did not record the error")
		}
	})
	t.Run("zero-length array fails at Build", func(t *testing.T) {
		b := NewBuilder("k", Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
		b.DeclareArray(Array{Name: "z", Type: F32, Len: 0})
		if _, err := b.Build(); err == nil {
			t.Error("expected length error")
		}
	})
	t.Run("first error wins", func(t *testing.T) {
		b, a := mk()
		b.DeclareArray(Array{Name: "z", Type: F32, Len: -3})
		b.Warp(0, 0).Load(a, make([]int64, 7))
		_, err := b.Build()
		if err == nil || !strings.Contains(err.Error(), "length -3") {
			t.Errorf("expected the first recorded error, got %v", err)
		}
	})
}

func TestActiveLanes(t *testing.T) {
	b := NewBuilder("k", Launch{Blocks: 1, ThreadsPerBlock: 4, WarpSize: 4})
	a := b.DeclareArray(Array{Name: "a", Type: F32, Len: 8})
	b.Warp(0, 0).Load(a, []int64{1, Inactive, 3, Inactive})
	tr := b.MustBuild()
	if got := tr.ActiveLanes(&tr.Warps[0].Inst[0]); got != 2 {
		t.Errorf("active lanes = %d", got)
	}
}

func TestComputeStats(t *testing.T) {
	tr := buildSmall(t)
	st := ComputeStats(tr)
	// Per warp: 2 int + 1 branch + 1 load + 3 fp + 1 store + 1 sync.
	if st.PerOp[OpInt] != 8 || st.PerOp[OpFP32] != 12 || st.PerOp[OpSync] != 4 {
		t.Errorf("per-op: %+v", st.PerOp)
	}
	if st.Executed() != 9*4 {
		t.Errorf("executed = %d", st.Executed())
	}
	if st.MemInsts() != 8 {
		t.Errorf("mem insts = %d", st.MemInsts())
	}
	aID, _ := tr.ArrayByName("a")
	oID, _ := tr.ArrayByName("o")
	if st.LoadsByArray[aID] != 4 || st.StoresByArr[oID] != 4 {
		t.Errorf("per-array: loads=%v stores=%v", st.LoadsByArray, st.StoresByArr)
	}
	if st.Accesses(aID) != 4 {
		t.Errorf("accesses(a) = %d", st.Accesses(aID))
	}
}

func TestArrayByName(t *testing.T) {
	tr := buildSmall(t)
	if _, ok := tr.ArrayByName("a"); !ok {
		t.Error("array a should exist")
	}
	if _, ok := tr.ArrayByName("zzz"); ok {
		t.Error("array zzz should not exist")
	}
}

func TestArraysSortedBySize(t *testing.T) {
	b := NewBuilder("k", Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	b.DeclareArray(Array{Name: "small", Type: F32, Len: 4})
	b.DeclareArray(Array{Name: "big", Type: F32, Len: 400})
	b.DeclareArray(Array{Name: "mid", Type: F64, Len: 40})
	b.Warp(0, 0).Int(1)
	tr := b.MustBuild()
	order := tr.ArraysSortedBySize()
	names := []string{tr.Arrays[order[0]].Name, tr.Arrays[order[1]].Name, tr.Arrays[order[2]].Name}
	if names[0] != "big" || names[1] != "mid" || names[2] != "small" {
		t.Errorf("order = %v", names)
	}
}

// Property: LoadCoalesced emits base+lane for active lanes and Inactive
// beyond.
func TestIndexHelpers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := int64(r.Intn(1000))
		active := 1 + r.Intn(32)
		b := NewBuilder("k", Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
		a := b.DeclareArray(Array{Name: "a", Type: F32, Len: 1100})
		b.Warp(0, 0).LoadCoalesced(a, base, active)
		tr := b.MustBuild()
		idx := tr.Lanes(&tr.Warps[0].Inst[0], nil)
		for l := 0; l < 32; l++ {
			if l < active && idx[l] != base+int64(l) {
				return false
			}
			if l >= active && idx[l] != Inactive {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStridedAndBroadcastHelpers(t *testing.T) {
	b := NewBuilder("k", Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	a := b.DeclareArray(Array{Name: "a", Type: F32, Len: 4096})
	wb := b.Warp(0, 0)
	wb.LoadStrided(a, 10, 3, 16)
	wb.LoadBroadcast(a, 7, 32)
	wb.StoreStrided(a, 0, 64, 32)
	tr := b.MustBuild()

	ld := tr.Lanes(&tr.Warps[0].Inst[0], nil)
	if ld[0] != 10 || ld[15] != 10+45 || ld[16] != Inactive {
		t.Errorf("strided load: %v", ld[:17])
	}
	bc := tr.Lanes(&tr.Warps[0].Inst[1], nil)
	for l := 0; l < 32; l++ {
		if bc[l] != 7 {
			t.Fatalf("broadcast lane %d = %d", l, bc[l])
		}
	}
	st := tr.Warps[0].Inst[2]
	if stIdx := tr.Lanes(&st, nil); st.Op != OpStore || stIdx[31] != 31*64 {
		t.Errorf("strided store: %v", stIdx[28:])
	}
}

// TestValidateNamesOffendingLane pins the out-of-range error text: it names
// the first offending lane in lane order and its absolute index, whether that
// lane is the first active one, lies below it, or lies above it, and however
// far out of range the index is.
func TestValidateNamesOffendingLane(t *testing.T) {
	for _, tc := range []struct {
		lanes []int64
		want  string
	}{
		{[]int64{5, 6, 7, 8}, "warp 0 inst 1 lane 3: index 8 out of [0,8)"},
		{[]int64{3, 2, 99, Inactive}, "warp 0 inst 1 lane 2: index 99 out of [0,8)"},
		{[]int64{Inactive, 5, -5, 8}, "warp 0 inst 1 lane 2: index -5 out of [0,8)"},
		{[]int64{Inactive, 8, 0, 1}, "warp 0 inst 1 lane 1: index 8 out of [0,8)"},
		{[]int64{1, -9223372036854775807, 2, 3}, "warp 0 inst 1 lane 1: index -9223372036854775807 out of [0,8)"},
		{[]int64{-9223372036854775807, 9223372036854775807, 2, 3}, "warp 0 inst 1 lane 0: index -9223372036854775807 out of [0,8)"},
	} {
		b := NewBuilder("k", Launch{Blocks: 1, ThreadsPerBlock: 4, WarpSize: 4})
		a := b.DeclareArray(Array{Name: "a", Type: F32, Len: 8})
		// The unit-stride shape in range first: the first case reuses its
		// pattern out of range.
		b.Warp(0, 0).Load(a, []int64{0, 1, 2, 3}).Load(a, tc.lanes)
		_, err := b.Build()
		if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("lanes %v: got %v, want an error ending %q", tc.lanes, err, tc.want)
		}
	}
}

// TestValidateRejectsMalformedPatterns corrupts a built trace's lane
// patterns in place: resolution trusts a valid trace's pattern table, so
// Validate must reject an instruction naming no pattern and a pattern whose
// lanes, offsets or extremes disagree.
func TestValidateRejectsMalformedPatterns(t *testing.T) {
	for name, corrupt := range map[string]func(*Trace){
		"pattern out of range":  func(tr *Trace) { tr.Warps[0].Inst[2].Pattern = 7 },
		"negative pattern":      func(tr *Trace) { tr.Warps[0].Inst[2].Pattern = -1 },
		"wrong extreme":         func(tr *Trace) { tr.Patterns[0].MaxRel = 1 },
		"offset without lane":   func(tr *Trace) { tr.Patterns[0].Rel = append(tr.Patterns[0].Rel, 40) },
		"lanes out of order":    func(tr *Trace) { tr.Patterns[0].Active[0], tr.Patterns[0].Active[1] = 1, 0 },
		"lane beyond the warp":  func(tr *Trace) { tr.Patterns[0].Active[31] = 32 },
		"first offset not zero": func(tr *Trace) { tr.Patterns[0].Rel[0] = 1 },
	} {
		tr := buildSmall(t)
		corrupt(tr)
		if err := tr.Validate(); !errors.Is(err, hmserr.ErrInvalidTrace) {
			t.Errorf("%s: Validate = %v, want ErrInvalidTrace", name, err)
		}
	}
}
