// Package core implements the paper's contribution: performance models that
// predict the execution time of a GPU kernel under arbitrary data placements
// from a single profiled sample placement (Huang & Li, CLUSTER 2017).
//
// The model decomposes execution time as
//
//	T = T_comp + T_mem − T_overlap                         (Eq 1)
//
// where T_comp is computed from *issued* instructions — executed
// instructions plus addressing-mode differences plus instruction replays
// (Eq 2–3, §III-B) — T_mem from effective memory requests times an average
// memory access latency whose DRAM component comes from a per-bank G/G/1
// queuing model with row-buffer-aware service times (Eq 4–10, §III-C), and
// T_overlap from an empirically trained linear model over memory events
// (Eq 11–12, §III-D). Appendix equations 13–19 supply instruction and memory
// throughput terms.
package core

import (
	"gpuhms/internal/dram"
	"gpuhms/internal/perf"
	"gpuhms/internal/queuing"
)

// Analysis is the output of the §IV framework for one (trace, placement)
// pair: the instruction trace is replayed through the cache models, memory
// events are counted, and the DRAM request stream is reduced to per-bank
// arrival/service statistics. Unlike the simulator this pass computes no
// timing — arrival "times" are an instruction-count proxy.
//
// The analysis is produced by the decomposed evaluator (see delta.go): a
// placement-independent program, per-array contributions against private
// caches, and a merged DRAM interaction pass. Every entry point — Predict,
// PredictDelta, Model.AnalyzePlacement — assembles an Analysis through that
// one path, so the same placement always yields a byte-identical Analysis no
// matter how it was reached.
//
// An Analysis returned by a Predictor is read-only. On architectures with
// remote spaces, the analyses of a placement and of its remote variants
// share one prepared queuing Network (see contribCache.merged).
type Analysis struct {
	Events perf.Events

	// Instruction aggregates (whole kernel). Issue slots, executed
	// instructions and replays are Events' IssueSlots, InstExecuted and
	// TotalReplays.
	MemInsts    int64 // warp-level loads+stores
	OffchipReqs int64 // mem insts to off-chip spaces
	RemoteReqs  int64 // off-chip mem insts to remote-placed arrays (chiplet)
	Syncs       int64

	// Memory shape.
	TransPerOffchip float64 // avg first-level transactions per off-chip inst
	MLP             float64 // mean consecutive-load run length per warp

	// DRAM statistics in proxy time (ns at nominal full issue rate): the
	// bank and controller queuing network, prepared once, and the span its
	// inter-arrival statistics were measured over.
	Network   queuing.Network
	RawSpanNS float64
	RowCounts dram.OutcomeCounts

	// Staging.
	StagingNS float64

	// ActiveSMs is the number of SMs the launch occupies (Eq 2).
	ActiveSMs int

	// Imbalance is the straggler factor of block scheduling: with B blocks
	// over S SMs, the busiest SM runs ceil(B/S) blocks while the average is
	// B/S, so the kernel finishes ceil(B/S)·S/B later than a perfectly
	// balanced launch would.
	Imbalance float64
}
