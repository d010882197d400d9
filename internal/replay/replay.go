// Package replay quantifies instruction replays — issued-but-not-fresh
// instructions that consume issue slots and reduce SM compute throughput.
// §III-B of the paper lists ten replay causes; causes (1)–(4) are direct
// consequences of memory references in the four programmable memory spaces
// and therefore change when data placement changes:
//
//	(1) global memory address divergence (a warp touches more words than one
//	    transaction can return);
//	(2) constant cache misses;
//	(3) address divergence in an indexed constant load;
//	(4) shared memory bank conflicts.
//
// Causes (5)–(10) (double-precision dual-issue, atomics, local-memory and
// instruction-cache effects, LSU pressure) are assumed identical between the
// sample and target placements (Eq 3).
package replay

import (
	"gpuhms/internal/cache"
	"gpuhms/internal/sharedmem"
)

// Reason identifies one placement-dependent replay cause.
type Reason uint8

const (
	GlobalDivergence   Reason = iota // cause (1)
	ConstantMiss                     // cause (2)
	ConstantDivergence               // cause (3)
	SharedBankConflict               // cause (4)
	AtomicConflict                   // cause (6): same-address lanes in an atomic serialize
	numReasons
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case GlobalDivergence:
		return "global-address-divergence"
	case ConstantMiss:
		return "constant-cache-miss"
	case ConstantDivergence:
		return "constant-address-divergence"
	case SharedBankConflict:
		return "shared-bank-conflict"
	case AtomicConflict:
		return "atomic-address-conflict"
	}
	return "unknown"
}

// AtomicConflictReplays returns the replays of one warp atomic: lanes whose
// element addresses collide serialize, so the access issues once per
// occurrence of the most-contended address — the maximum address
// multiplicity minus one. The addresses are sorted in a stack copy, so the
// count allocates nothing (for warps of up to 64 lanes) and leaves addrs
// untouched.
func AtomicConflictReplays(addrs []uint64) int64 {
	if len(addrs) == 0 {
		return 0
	}
	var buf [64]uint64
	sorted := append(buf[:0], addrs...)
	cache.SortSmall(sorted)
	most, run := 1, 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			run++
			most = max(most, run)
		} else {
			run = 1
		}
	}
	return int64(most - 1)
}

// Breakdown tallies replays by cause. It is the inst_replay_{1-4} quantity
// of Eq 3.
type Breakdown struct {
	ByReason [numReasons]int64
}

// Add records n replays of one cause.
func (b *Breakdown) Add(r Reason, n int64) {
	if n > 0 {
		b.ByReason[r] += n
	}
}

// Total returns all placement-dependent replays.
func (b *Breakdown) Total() int64 {
	var t int64
	for _, n := range b.ByReason {
		t += n
	}
	return t
}

// Merge adds another breakdown into b.
func (b *Breakdown) Merge(o Breakdown) {
	for i, n := range o.ByReason {
		b.ByReason[i] += n
	}
}

// GlobalDivergenceReplays returns the replays of one warp-level global
// access: the number of memory transactions needed to satisfy it, minus one
// (§III-B: "count the total number of words for all threads in a warp,
// divide by memory transaction size, result minus 1").
func GlobalDivergenceReplays(addrs []uint64, transactionBytes int) int64 {
	n := len(cache.LinesTouched(addrs, transactionBytes))
	if n <= 1 {
		return 0
	}
	return int64(n - 1)
}

// ConstantDivergenceReplays returns the replays of one indexed constant
// load: constant memory broadcasts one word per cycle, so a warp addressing
// d distinct words serializes into d issues — d−1 replays.
func ConstantDivergenceReplays(addrs []uint64, wordBytes int) int64 {
	n := len(cache.LinesTouched(addrs, wordBytes))
	if n <= 1 {
		return 0
	}
	return int64(n - 1)
}

// SharedConflictReplays returns the replays of one shared-memory warp
// access under the bank configuration: conflict degree − 1.
func SharedConflictReplays(cfg sharedmem.Config, addrs []uint64) int64 {
	return int64(cfg.Conflicts(addrs, nil))
}
