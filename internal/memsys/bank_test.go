package memsys

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpuhms/internal/gpu"
	"gpuhms/internal/trace"
)

// keplerDegree is bankConflictDegree under the K80's shared-memory banks.
func keplerDegree(addrs []uint64) int {
	cfg := gpu.KeplerK80()
	return bankConflictDegree(addrs, cfg.SharedBanks, cfg.SharedBankBytes)
}

func strideAddrs(stride, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i * stride)
	}
	return out
}

func TestConflictFreeUnitStride(t *testing.T) {
	// 32 lanes × consecutive 4-byte words → one word per bank.
	if d := keplerDegree(strideAddrs(4, 32)); d != 1 {
		t.Errorf("unit stride degree = %d", d)
	}
}

func TestBroadcastIsConflictFree(t *testing.T) {
	same := make([]uint64, 32)
	for i := range same {
		same[i] = 128
	}
	if d := keplerDegree(same); d != 1 {
		t.Errorf("broadcast degree = %d", d)
	}
}

func TestPowerOfTwoStrides(t *testing.T) {
	// Classic result: stride s (in words) on 32 banks gives
	// gcd(s,32)-way conflicts.
	for _, tc := range []struct {
		strideWords int
		degree      int
	}{
		{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16}, {32, 32}, {3, 1}, {5, 1}, {33, 1},
	} {
		got := keplerDegree(strideAddrs(tc.strideWords*4, 32))
		if got != tc.degree {
			t.Errorf("stride %d words: degree = %d, want %d", tc.strideWords, got, tc.degree)
		}
	}
}

func TestPaddingRemovesConflicts(t *testing.T) {
	// The classic padding trick: stride 32 words conflicts 32-way; stride
	// 33 words is conflict-free.
	if d := keplerDegree(strideAddrs(32*4, 32)); d != 32 {
		t.Errorf("unpadded degree = %d", d)
	}
	if d := keplerDegree(strideAddrs(33*4, 32)); d != 1 {
		t.Errorf("padded degree = %d", d)
	}
}

// Inactive lanes never reach the bank count: ResolveScratch resolves only
// the active lanes' addresses.
func TestInactiveLanesIgnored(t *testing.T) {
	cfg := gpu.KeplerK80()
	lanes := func(active ...int) []int64 {
		idx := make([]int64, 32)
		for i := range idx {
			idx[i] = trace.Inactive
		}
		for _, l := range active {
			idx[l] = int64(l * 32) // every lane in the same bank
		}
		return idx
	}
	tr := buildKernel(t, trace.Array{Name: "s", Type: trace.F32, Len: 4096},
		func(w *trace.WarpBuilder, id trace.ArrayID) {
			w.Load(id, lanes(0, 7))
			w.Load(id, lanes())
		})
	b, _ := bind(cfg, tr, "s:S")
	h := NewHierarchy(cfg)
	var sc Scratch
	if r := h.ResolveScratch(b, &tr.Warps[0].Inst[0], &sc); r.ReplayShared != 1 {
		t.Errorf("two active lanes: %d bank-conflict replays, want 1", r.ReplayShared)
	}
	if r := h.ResolveScratch(b, &tr.Warps[0].Inst[1], &sc); r.ReplayShared != 0 || r.Transactions != 1 {
		t.Errorf("no active lanes: %d replays, %d transactions (an access still issues once)",
			r.ReplayShared, r.Transactions)
	}
}

func TestSameWordDifferentLanesBroadcasts(t *testing.T) {
	// Half the warp reads word 0, half reads word 32 (same bank, different
	// words): 2-way conflict, not 32-way.
	a := make([]uint64, 32)
	for i := range a {
		if i%2 == 0 {
			a[i] = 0
		} else {
			a[i] = 32 * 4
		}
	}
	if d := keplerDegree(a); d != 2 {
		t.Errorf("two-word same-bank degree = %d", d)
	}
}

// Property: degree is between 1 and the number of lanes, and equals the
// true maximum per-bank distinct-word count computed by a reference
// implementation.
func TestConflictDegreeMatchesReference(t *testing.T) {
	const banks, bankBytes = 32, 4
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(32)
		a := make([]uint64, n)
		for i := range a {
			a[i] = uint64(r.Intn(2048)) * 4
		}
		got := bankConflictDegree(a, banks, bankBytes)

		// Reference: map bank → set of words.
		table := make(map[int]map[uint64]bool)
		for _, addr := range a {
			word := addr / bankBytes
			bank := int(word % banks)
			if table[bank] == nil {
				table[bank] = make(map[uint64]bool)
			}
			table[bank][word] = true
		}
		want := 1
		for _, words := range table {
			if len(words) > want {
				want = len(words)
			}
		}
		return got == want && got >= 1 && got <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManyDistinctWordsPerBankOverflowPath(t *testing.T) {
	// 8 distinct words all in bank 0 of 2: many words per bank.
	a := make([]uint64, 8)
	for i := range a {
		a[i] = uint64(i) * 2 * 4 // even words → bank 0
	}
	if d := bankConflictDegree(a, 2, 4); d != 8 {
		t.Errorf("degree = %d, want 8", d)
	}
	// Duplicates must still broadcast.
	a = append(a, a[5], a[6])
	if d := bankConflictDegree(a, 2, 4); d != 8 {
		t.Errorf("degree with dups = %d, want 8", d)
	}
}
