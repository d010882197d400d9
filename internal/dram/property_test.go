package dram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpuhms/internal/gpu"
)

// Property: the event-driven system serves each bank FIFO — per-bank start
// times are nondecreasing in arrival order, no request starts before it
// arrives, and every completion is start + one of the three access
// latencies.
func TestSystemFIFOInvariants(t *testing.T) {
	tp := gpu.KeplerK80().DRAM
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSystem(tp, DefaultMapping(tp))
		lastStart := make(map[int]float64)
		now := 0.0
		for i := 0; i < 300; i++ {
			now += r.Float64() * 50
			addr := uint64(r.Intn(1 << 22))
			res := s.Service(addr, now)
			if res.Start < now {
				return false // started before arrival
			}
			if res.Start < lastStart[res.Bank] {
				return false // FIFO violated within the bank
			}
			lastStart[res.Bank] = res.Start
			lat := res.Done - res.Start
			ok := false
			for _, want := range []float64{tp.HitLatencyNS, tp.MissLatencyNS, tp.ConflictLatencyNS} {
				if math.Abs(lat-want) < 1e-6 {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the analyzer's aggregate outcome tally equals the sum of its
// per-bank tallies, as seen through each bank stream's N and AccessNS, and
// bank and controller stream request counts match.
func TestAnalyzerTallyConsistency(t *testing.T) {
	tp := gpu.KeplerK80().DRAM
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mode := Mapped
		if seed%2 == 0 {
			mode = Even
		}
		a := NewAnalyzer(tp, mode)
		n := 50 + r.Intn(500)
		for i := 0; i < n; i++ {
			a.Add(uint64(r.Intn(1<<24)), float64(i)*3)
		}
		if a.Counts().Total() != int64(n) {
			return false
		}
		// Each bank stream's AccessNS is its own outcome tally's Eq 8 mean,
		// so the N-weighted sum over banks must equal the aggregate tally's
		// total service time: the per-bank tallies partition the aggregate.
		var streamN int64
		var perBankNS float64
		for _, st := range a.Streams() {
			streamN += st.N
			perBankNS += float64(st.N) * st.AccessNS
		}
		totalNS := float64(n) * a.Counts().AvgServiceNS(tp)
		if math.Abs(perBankNS-totalNS) > 1e-9*totalNS {
			return false
		}
		var ctlN int64
		for _, st := range a.CtlStreams() {
			ctlN += st.N
		}
		return streamN == int64(n) && ctlN == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: slowing every arrival down (scaling gaps up) can only reduce
// per-bank utilization in the analyzer's streams.
func TestSlowerArrivalsLowerUtilization(t *testing.T) {
	tp := gpu.KeplerK80().DRAM
	r := rand.New(rand.NewSource(7))
	addrs := make([]uint64, 400)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 22))
	}
	util := func(scale float64) float64 {
		a := NewAnalyzer(tp, Mapped)
		for i, addr := range addrs {
			a.Add(addr, float64(i)*scale)
		}
		total := 0.0
		for _, st := range a.Streams() {
			total += st.Rho()
		}
		return total
	}
	if fast, slow := util(1), util(10); slow > fast+1e-9 {
		t.Errorf("slower arrivals increased utilization: %g vs %g", slow, fast)
	}
}
