//go:build race

package train

// raceEnabled mirrors the race detector's build tag so the multi-arch event
// oracle can shrink to k80 under -race, where every memory access costs an
// order of magnitude more.
const raceEnabled = true
