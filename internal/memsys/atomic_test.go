package memsys

import (
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/trace"
)

func TestAtomicConflictSerialization(t *testing.T) {
	cfg := gpu.KeplerK80()

	t.Run("all lanes same bin", func(t *testing.T) {
		tr := buildKernel(t, trace.Array{Name: "bins", Type: trace.F32, Len: 64},
			func(w *trace.WarpBuilder, id trace.ArrayID) {
				idx := make([]int64, 32) // everyone hits bin 0
				w.Atomic(id, idx)
			})
		b, _ := bind(cfg, tr, "")
		h := NewHierarchy(cfg)
		sm := NewSMCaches(cfg)
		res := access(h, sm, b, &tr.Warps[0].Inst[0])
		if got := res.Events.ReplayAtomic; got != 31 {
			t.Errorf("fully-contended atomic replays = %d, want 31", got)
		}
		if !res.Store {
			t.Error("atomic should count as a write")
		}
	})

	t.Run("all lanes distinct bins", func(t *testing.T) {
		tr := buildKernel(t, trace.Array{Name: "bins", Type: trace.F32, Len: 64},
			func(w *trace.WarpBuilder, id trace.ArrayID) {
				idx := make([]int64, 32)
				for i := range idx {
					idx[i] = int64(i)
				}
				w.Atomic(id, idx)
			})
		b, _ := bind(cfg, tr, "")
		h := NewHierarchy(cfg)
		sm := NewSMCaches(cfg)
		res := access(h, sm, b, &tr.Warps[0].Inst[0])
		if got := res.Events.ReplayAtomic; got != 0 {
			t.Errorf("conflict-free atomic replays = %d", got)
		}
	})

	t.Run("shared atomics combine with bank conflicts", func(t *testing.T) {
		tr := buildKernel(t, trace.Array{Name: "bins", Type: trace.F32, Len: 4096},
			func(w *trace.WarpBuilder, id trace.ArrayID) {
				idx := make([]int64, 32)
				for i := range idx {
					idx[i] = int64((i % 2) * 32) // two addresses, same bank
				}
				w.Atomic(id, idx)
			})
		b, _ := bind(cfg, tr, "bins:S")
		h := NewHierarchy(cfg)
		sm := NewSMCaches(cfg)
		res := access(h, sm, b, &tr.Warps[0].Inst[0])
		// 16 lanes per address → 15 atomic-conflict replays; the two words
		// share a bank → 1 bank-conflict replay.
		if got := res.Events.ReplayAtomic; got != 15 {
			t.Errorf("atomic replays = %d, want 15", got)
		}
		if got := res.Events.ReplayShared; got != 1 {
			t.Errorf("bank replays = %d, want 1", got)
		}
	})
}

func TestAtomicConflictReplaysHelper(t *testing.T) {
	if got := atomicConflicts(nil); got != 0 {
		t.Errorf("empty = %d", got)
	}
	if got := atomicConflicts([]uint64{4, 4, 4, 8}); got != 2 {
		t.Errorf("3x one address = %d, want 2", got)
	}
}
