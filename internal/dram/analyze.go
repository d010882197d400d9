package dram

import (
	"gpuhms/internal/gpu"
	"gpuhms/internal/queuing"
	"gpuhms/internal/stats"
)

// DistributionMode selects how the model distributes memory requests over
// banks when analyzing a trace.
type DistributionMode uint8

const (
	// Mapped uses the address mapping scheme (detected or configured) to
	// place each request on its true bank and row — the paper's full model.
	Mapped DistributionMode = iota
	// Even ignores the address mapping: requests are spread round-robin over
	// all banks and rows are derived from a naive contiguous layout
	// (addr / RowBytes). This is the "even distribution of memory requests
	// between memory banks" ablation of §V-B (Fig 8).
	Even
)

// Analyzer replays a DRAM request stream analytically — no timing, only
// row-buffer state per bank — and accumulates the per-bank inter-arrival and
// service statistics the G/G/1 queuing model needs (§III-C2/C3). Arrival
// "times" are whatever proxy the caller supplies; the paper approximates the
// inter-arrival time of two consecutive requests by the number of
// instructions between them.
type Analyzer struct {
	topo    gpu.DRAMTopology
	mapping Mapping
	mode    DistributionMode

	rows    []RowBuffer
	counts  []OutcomeCounts
	total   OutcomeCounts
	last    []float64 // per bank: previous arrival proxy
	seen    []bool
	arrival []stats.Welford
	service []stats.Welford
	batches []int64 // per bank: number of arrival batches
	rr      int     // round-robin cursor for Even mode

	// Per-controller statistics for the second queuing stage (the shared
	// data bus of each memory channel).
	ctlLast    []float64
	ctlSeen    []bool
	ctlArrival []stats.Welford
	ctlN       []int64
	ctlBatches []int64

	streams []queuing.Stream // Network's staging buffer
}

// batchThreshold returns the inter-arrival gap below which two requests are
// considered one batch: a gap the server cannot even start a service in.
func (a *Analyzer) batchThreshold() float64 { return a.topo.BusyHitNS }

// NewAnalyzer builds an analyzer for the topology, placing requests with
// the topology's default address mapping.
func NewAnalyzer(topo gpu.DRAMTopology, mode DistributionMode) *Analyzer {
	nb := topo.TotalBanks()
	nc := topo.Controllers
	return &Analyzer{
		topo:       topo,
		mapping:    DefaultMapping(topo),
		mode:       mode,
		rows:       make([]RowBuffer, nb),
		counts:     make([]OutcomeCounts, nb),
		last:       make([]float64, nb),
		seen:       make([]bool, nb),
		arrival:    make([]stats.Welford, nb),
		service:    make([]stats.Welford, nb),
		batches:    make([]int64, nb),
		ctlLast:    make([]float64, nc),
		ctlSeen:    make([]bool, nc),
		ctlArrival: make([]stats.Welford, nc),
		ctlN:       make([]int64, nc),
		ctlBatches: make([]int64, nc),
	}
}

// Reset returns the analyzer to its freshly-built state — all row buffers
// closed, every per-bank and per-controller statistic zeroed — so one
// allocation can be reused across many trace replays.
func (a *Analyzer) Reset() {
	clear(a.rows)
	clear(a.counts)
	a.total = OutcomeCounts{}
	clear(a.last)
	clear(a.seen)
	clear(a.arrival)
	clear(a.service)
	clear(a.batches)
	a.rr = 0
	clear(a.ctlLast)
	clear(a.ctlSeen)
	clear(a.ctlArrival)
	clear(a.ctlN)
	clear(a.ctlBatches)
}

// Add records one DRAM request with its arrival proxy (must be nondecreasing
// per bank for meaningful inter-arrival statistics) and returns its
// row-buffer outcome.
func (a *Analyzer) Add(addr uint64, at float64) Outcome {
	var bank int
	var row int64
	if a.mode == Even {
		bank = a.rr
		a.rr = (a.rr + 1) % len(a.rows)
		row = int64(addr / uint64(a.topo.RowBytes))
	} else {
		bank = a.mapping.Bank(addr)
		row = a.mapping.Row(addr)
	}
	out := a.rows[bank].Access(row)
	a.counts[bank].Add(out)
	a.total.Add(out)
	a.service[bank].Add(out.BusyNS(a.topo))
	if a.seen[bank] {
		d := at - a.last[bank]
		if d < 0 {
			d = 0
		}
		a.arrival[bank].Add(d)
		if d > a.batchThreshold() {
			a.batches[bank]++
		}
	} else {
		a.batches[bank] = 1
	}
	a.seen[bank] = true
	a.last[bank] = at

	ctl := Controller(bank, a.topo.Controllers)
	a.ctlN[ctl]++
	if a.ctlSeen[ctl] {
		d := at - a.ctlLast[ctl]
		if d < 0 {
			d = 0
		}
		a.ctlArrival[ctl].Add(d)
		if d > a.topo.CtlBusyNS {
			a.ctlBatches[ctl]++
		}
	} else {
		a.ctlBatches[ctl] = 1
	}
	a.ctlSeen[ctl] = true
	a.ctlLast[ctl] = at
	return out
}

// Counts returns the aggregate row-buffer outcome tally.
func (a *Analyzer) Counts() OutcomeCounts { return a.total }

// Network prepares the two-stage queuing network of the requests recorded
// so far. Its streams are staged in a buffer the analyzer reuses, so the
// network's exactly-sized server slice is the only allocation.
func (a *Analyzer) Network() queuing.Network {
	st, nb := a.stage()
	return queuing.NewNetwork(st[:nb], st[nb:])
}

// stage fills the staging buffer with the stream of every bank that saw a
// request, in bank order, then of every controller that did; nb counts the
// bank streams. The next call overwrites the buffer.
//
// A bank stream takes the occupancy statistics as its service process (they
// bound throughput) and the row-buffer-dependent mean access latency as
// AccessNS (Eq 8); a bank with a single request has zero inter-arrival
// statistics and contributes only its access latency. A controller stream
// models the channel's data bus: deterministic service (the per-line bus
// occupancy) fed by the union of its banks' arrivals. This is the second
// stage of the composable queuing network — "the queuing model is highly
// composable and flexible, allowing us to model the combination of diverse
// memory systems".
func (a *Analyzer) stage() (st []queuing.Stream, nb int) {
	if a.streams == nil {
		a.streams = make([]queuing.Stream, 0, len(a.rows)+len(a.ctlN))
	}
	st = a.streams[:0]
	for b := range a.rows {
		if a.service[b].N() == 0 {
			continue
		}
		n := a.service[b].N()
		batch := 1.0
		if a.batches[b] > 0 {
			batch = float64(n) / float64(a.batches[b])
		}
		st = append(st, queuing.Stream{
			TauA:     a.arrival[b].Mean(),
			SigmaA:   a.arrival[b].StdDev(),
			TauS:     a.service[b].Mean(),
			SigmaS:   a.service[b].StdDev(),
			AccessNS: a.counts[b].AvgServiceNS(a.topo),
			Batch:    batch,
			N:        n,
		})
	}
	nb = len(st)
	for c := range a.ctlN {
		if a.ctlN[c] == 0 {
			continue
		}
		batch := 1.0
		if a.ctlBatches[c] > 0 {
			batch = float64(a.ctlN[c]) / float64(a.ctlBatches[c])
		}
		st = append(st, queuing.Stream{
			TauA:   a.ctlArrival[c].Mean(),
			SigmaA: a.ctlArrival[c].StdDev(),
			TauS:   a.topo.CtlBusyNS,
			SigmaS: 0,
			Batch:  batch,
			N:      a.ctlN[c],
		})
	}
	return st, nb
}

// MeanCa returns the arrival-CoV averaged over active banks and its standard
// deviation across banks — the c_a statistics reported for Fig 4
// ("the average c_a of all memory banks is 1.11, 2.22, and 1.72 …").
func (a *Analyzer) MeanCa() (mean, std float64) {
	var cas []float64
	for b := range a.arrival {
		if a.arrival[b].N() < 2 {
			continue
		}
		cas = append(cas, a.arrival[b].CoV())
	}
	return stats.Mean(cas), stats.StdDev(cas)
}
