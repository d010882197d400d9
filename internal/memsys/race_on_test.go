//go:build race

package memsys

// raceEnabled mirrors the race detector's build tag so the multi-arch sweeps
// can shrink to representative subsets under -race, where every memory
// access costs an order of magnitude more.
const raceEnabled = true
