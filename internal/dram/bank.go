package dram

import (
	"fmt"

	"gpuhms/internal/gpu"
)

// Outcome classifies one DRAM access against the bank's row-buffer state.
type Outcome uint8

const (
	// Hit: the requested row is open in the row buffer.
	Hit Outcome = iota
	// Miss: the bank's row buffer is empty (first touch / closed row); a
	// row activate is needed.
	Miss
	// Conflict: a different row is open; it must be written back before the
	// requested row is activated — the longest latency.
	Conflict
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Conflict:
		return "conflict"
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// ServiceNS returns the end-to-end access latency of the outcome on the
// topology, in nanoseconds — what an isolated pointer chase measures.
func (o Outcome) ServiceNS(t gpu.DRAMTopology) float64 {
	switch o {
	case Hit:
		return t.HitLatencyNS
	case Miss:
		return t.MissLatencyNS
	default:
		return t.ConflictLatencyNS
	}
}

// BusyNS returns the bank occupancy of the outcome: how long the bank stays
// busy before the next request can start service. Occupancy is what bounds
// bank throughput; it is much shorter than the access latency.
func (o Outcome) BusyNS(t gpu.DRAMTopology) float64 {
	switch o {
	case Hit:
		return t.BusyHitNS
	case Miss:
		return t.BusyMissNS
	default:
		return t.BusyConflictNS
	}
}

// RowBuffer is the state machine of one bank's row buffer.
type RowBuffer struct {
	openRow int64
	open    bool
}

// Access classifies a request for the given row and opens it.
func (rb *RowBuffer) Access(row int64) Outcome {
	switch {
	case !rb.open:
		rb.open, rb.openRow = true, row
		return Miss
	case rb.openRow == row:
		return Hit
	default:
		rb.openRow = row
		return Conflict
	}
}

// OutcomeCounts tallies classification results.
type OutcomeCounts struct {
	Hits, Misses, Conflicts int64
}

// Add increments the tally for one outcome.
func (c *OutcomeCounts) Add(o Outcome) {
	switch o {
	case Hit:
		c.Hits++
	case Miss:
		c.Misses++
	default:
		c.Conflicts++
	}
}

// Total returns the number of classified accesses.
func (c OutcomeCounts) Total() int64 { return c.Hits + c.Misses + c.Conflicts }

// Ratios returns (hit, miss, conflict) fractions; zeros for an empty tally.
func (c OutcomeCounts) Ratios() (hit, miss, conflict float64) {
	n := c.Total()
	if n == 0 {
		return 0, 0, 0
	}
	f := float64(n)
	return float64(c.Hits) / f, float64(c.Misses) / f, float64(c.Conflicts) / f
}

// AvgServiceNS returns the tally's mean service time (Eq 8 of the paper:
// ave_service_time = miss_lat·miss_ratio + conflict_lat·conflict_ratio +
// hit_lat·hit_ratio).
func (c OutcomeCounts) AvgServiceNS(t gpu.DRAMTopology) float64 {
	hit, miss, conflict := c.Ratios()
	return t.HitLatencyNS*hit + t.MissLatencyNS*miss + t.ConflictLatencyNS*conflict
}
