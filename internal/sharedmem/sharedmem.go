// Package sharedmem models the on-chip shared memory: a banked scratchpad
// where a warp access serializes when multiple lanes touch different words
// in the same bank (a bank conflict). Bank conflicts are instruction-replay
// reason (4) of §III-B and feed both the replay quantification and the
// T_overlap event model.
package sharedmem

import (
	"math/bits"
	"slices"

	"gpuhms/internal/cache"
	"gpuhms/internal/gpu"
)

// Config describes the shared memory organization.
type Config struct {
	Banks     int // number of banks (32 on Kepler)
	BankBytes int // word width per bank per cycle (4 bytes on Kepler)
}

// FromGPU extracts the shared-memory configuration.
func FromGPU(c *gpu.Config) Config {
	return Config{Banks: c.SharedBanks, BankBytes: c.SharedBankBytes}
}

// ConflictDegree returns the serialization degree of one warp access: the
// maximum, over banks, of the number of *distinct* words the warp's active
// lanes address in that bank. Lanes reading the same word broadcast and do
// not conflict. A conflict-free access has degree 1; an access with degree d
// replays d−1 times.
//
// addrs holds block-local shared-memory byte addresses; active[i] reports
// whether lane i participates. active may be nil (all lanes active).
// Banks and BankBytes must be powers of two (gpu.Config.Validate enforces
// it): words and banks are shifts and masks.
func (c Config) ConflictDegree(addrs []uint64, active []bool) int {
	// The words of one warp fit a stack buffer: sort and dedup them there,
	// then count the distinct words per bank in a stack table. Nothing
	// escapes for warps of up to 64 lanes and 64 banks, so the per-access
	// cost is one short sort and no allocation.
	var wordBuf [64]uint64
	words := wordBuf[:0]
	shift := uint(bits.TrailingZeros64(uint64(c.BankBytes)))
	for i, a := range addrs {
		if active != nil && !active[i] {
			continue
		}
		words = append(words, a>>shift)
	}
	if len(words) == 0 {
		return 1 // an access with no active lanes still issues once
	}
	cache.SortSmall(words)
	words = slices.Compact(words)
	var countBuf [64]uint16
	count := countBuf[:]
	if c.Banks > len(countBuf) {
		count = make([]uint16, c.Banks)
	}
	mask := uint64(c.Banks - 1)
	degree := uint16(0)
	for _, w := range words {
		n := &count[w&mask]
		*n++
		degree = max(degree, *n)
	}
	return int(degree)
}

// Conflicts returns the number of bank-conflict replays of one warp access:
// ConflictDegree − 1.
func (c Config) Conflicts(addrs []uint64, active []bool) int {
	return c.ConflictDegree(addrs, active) - 1
}
