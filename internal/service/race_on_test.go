//go:build race

package service

// raceEnabled mirrors the race detector's build tag so the wall-clock
// latency bounds can skip under -race, where every memory access costs an
// order of magnitude more.
const raceEnabled = true
