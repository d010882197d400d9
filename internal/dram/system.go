package dram

import "gpuhms/internal/gpu"

// System is the event-driven DRAM model used as ground truth by the timing
// simulator. Each global bank is a single server with a FIFO queue: a
// request starts service when both it has arrived and the bank is free; its
// service time depends on the row-buffer outcome at service start. System
// keeps timing state only — row buffers, bank and bus free times — plus the
// aggregate outcome tally; per-bank statistics belong to Analyzer.
type System struct {
	topo    gpu.DRAMTopology
	mapping Mapping

	rows    []RowBuffer
	freeAt  []float64 // per bank: time the bank becomes free, ns
	ctlFree []float64 // per controller: data-bus free time, ns

	total OutcomeCounts
}

// Controller returns the memory controller servicing a global bank. Banks
// interleave round-robin over controllers so that consecutively-numbered
// banks (which consecutive address ranges map to) spread across channels.
func Controller(bank, controllers int) int { return bank % controllers }

// NewSystem builds a DRAM system for the topology with the given mapping.
func NewSystem(topo gpu.DRAMTopology, m Mapping) *System {
	nb := topo.TotalBanks()
	return &System{
		topo:    topo,
		mapping: m,
		rows:    make([]RowBuffer, nb),
		freeAt:  make([]float64, nb),
		ctlFree: make([]float64, topo.Controllers),
	}
}

// Result describes the servicing of one request.
type Result struct {
	Bank    int
	Row     int64
	Outcome Outcome
	Start   float64 // ns, when the bank began service
	Done    float64 // ns, when data was returned
}

// Latency returns the request's total latency from the given arrival time.
func (r Result) Latency(arrival float64) float64 { return r.Done - arrival }

// Service processes one request arriving at the given time (ns) for the
// given device address. Requests to the same bank are serviced FIFO in call
// order; callers should issue requests in approximately nondecreasing
// arrival order for faithful queuing. A request starts when it has arrived,
// its bank is free (bank occupancy) and its controller's data bus has a
// slot; it completes after the row-buffer-dependent access latency.
func (s *System) Service(addr uint64, arrival float64) Result {
	bank := s.mapping.Bank(addr)
	row := s.mapping.Row(addr)
	ctl := Controller(bank, s.topo.Controllers)

	start := arrival
	if s.freeAt[bank] > start {
		start = s.freeAt[bank]
	}
	if s.ctlFree[ctl] > start {
		start = s.ctlFree[ctl]
	}
	out := s.rows[bank].Access(row)
	done := start + out.ServiceNS(s.topo)
	s.freeAt[bank] = start + out.BusyNS(s.topo)
	s.ctlFree[ctl] = start + s.topo.CtlBusyNS
	s.total.Add(out)
	return Result{Bank: bank, Row: row, Outcome: out, Start: start, Done: done}
}

// Counts returns the aggregate outcome tally.
func (s *System) Counts() OutcomeCounts { return s.total }

// Reset closes every row buffer and frees every bank and bus, returning the
// system to its freshly-built state.
func (s *System) Reset() {
	clear(s.rows)
	clear(s.freeAt)
	clear(s.ctlFree)
	s.total = OutcomeCounts{}
}
