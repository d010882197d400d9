package memsys

import (
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/perf"
	"gpuhms/internal/trace"
)

// activeLanes returns a warp's lane indices with lane l at index[l] for
// each given index and every other lane inactive.
func activeLanes(index ...int64) []int64 {
	idx := make([]int64, 32)
	for i := range idx {
		idx[i] = trace.Inactive
	}
	copy(idx, index)
	return idx
}

// TestGlobalDivergenceReplays pins the §III-B rule for cause (1): a global
// warp access replays once per memory transaction beyond the first.
func TestGlobalDivergenceReplays(t *testing.T) {
	cfg := gpu.KeplerK80() // 128-byte transactions
	coalesced := make([]int64, 32)
	diverged := make([]int64, 32)
	for i := range coalesced {
		coalesced[i] = int64(i)
		diverged[i] = int64(i) * 32 // every lane its own transaction
	}
	for _, tc := range []struct {
		name  string
		lanes []int64
		want  int64
	}{
		{"coalesced", coalesced, 0},
		{"diverged", diverged, 31},
		{"two-line straddle", activeLanes(0, 31, 32), 1},
		{"no active lane", activeLanes(), 0},
	} {
		tr := buildKernel(t, trace.Array{Name: "a", Type: trace.F32, Len: 1 << 12, ReadOnly: true},
			func(w *trace.WarpBuilder, id trace.ArrayID) { w.Load(id, tc.lanes) })
		b, _ := bind(cfg, tr, "")
		var sc Scratch
		r := NewHierarchy(cfg).ResolveScratch(b, &tr.Warps[0].Inst[0], &sc)
		if r.ReplayGlobalDiv != tc.want || r.StaticReplays() != tc.want {
			t.Errorf("%s: %d divergence replays (%d static), want %d",
				tc.name, r.ReplayGlobalDiv, r.StaticReplays(), tc.want)
		}
	}
}

// TestConstantDivergenceReplays pins cause (3): constant memory broadcasts
// one word per cycle, so a warp addressing d distinct words replays d−1
// times.
func TestConstantDivergenceReplays(t *testing.T) {
	cfg := gpu.KeplerK80()
	broadcast := make([]int64, 32)
	for i := range broadcast {
		broadcast[i] = 64
	}
	for _, tc := range []struct {
		name  string
		lanes []int64
		want  int64
	}{
		{"broadcast", broadcast, 0},
		{"four words", activeLanes(0, 1, 2, 3), 3},
	} {
		tr := buildKernel(t, trace.Array{Name: "c", Type: trace.F32, Len: 1024, ReadOnly: true},
			func(w *trace.WarpBuilder, id trace.ArrayID) { w.Load(id, tc.lanes) })
		b, _ := bind(cfg, tr, "c:C")
		var sc Scratch
		r := NewHierarchy(cfg).ResolveScratch(b, &tr.Warps[0].Inst[0], &sc)
		if r.ReplayConstDiv != tc.want {
			t.Errorf("%s: %d divergence replays, want %d", tc.name, r.ReplayConstDiv, tc.want)
		}
	}
}

// TestSharedConflictReplays pins cause (4): conflict degree − 1.
func TestSharedConflictReplays(t *testing.T) {
	if r := keplerDegree(strideAddrs(8, 32)) - 1; r != 1 {
		t.Errorf("stride-2 replays = %d", r)
	}
}

// TestCountCompute pins the non-memory counters against hand counts: every
// instruction executes and issues once, double precision takes two issue
// slots, integer instructions also count as integer, and a barrier takes
// one slot.
func TestCountCompute(t *testing.T) {
	for _, tc := range []struct {
		in    trace.Inst
		slots int64
		want  perf.Events
	}{
		{trace.Inst{Op: trace.OpFP32, Count: 3}, 3,
			perf.Events{IssueSlots: 3, InstIssued: 3, InstExecuted: 3}},
		{trace.Inst{Op: trace.OpFP64, Count: 3}, 6,
			perf.Events{IssueSlots: 6, InstIssued: 3, InstExecuted: 3}},
		{trace.Inst{Op: trace.OpInt, Count: 4}, 4,
			perf.Events{IssueSlots: 4, InstIssued: 4, InstExecuted: 4, InstInteger: 4}},
		{trace.Inst{Op: trace.OpSync, Count: 1}, 1,
			perf.Events{IssueSlots: 1, InstIssued: 1, InstExecuted: 1}},
		{trace.Inst{Op: trace.OpSFU, Count: 2}, 2,
			perf.Events{IssueSlots: 2, InstIssued: 2, InstExecuted: 2}},
		{trace.Inst{Op: trace.OpBranch, Count: 5}, 5,
			perf.Events{IssueSlots: 5, InstIssued: 5, InstExecuted: 5}},
	} {
		var ev perf.Events
		if slots := CountCompute(&ev, &tc.in); slots != tc.slots || ev != tc.want {
			t.Errorf("%s x%d: %d slots, events %+v; want %d slots, %+v",
				tc.in.Op, tc.in.Count, slots, ev, tc.slots, tc.want)
		}
	}
	// Records add up: counting into a running total adds to it.
	ev := perf.Events{IssueSlots: 10, InstIssued: 10, InstExecuted: 10, InstInteger: 10}
	CountCompute(&ev, &trace.Inst{Op: trace.OpInt, Count: 2})
	if ev.IssueSlots != 12 || ev.InstIssued != 12 || ev.InstExecuted != 12 || ev.InstInteger != 12 {
		t.Errorf("accumulated events %+v", ev)
	}
}
