package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpuhms/internal/gpu"
)

func topo() gpu.DRAMTopology { return gpu.KeplerK80().DRAM }

func TestDefaultMappingLayout(t *testing.T) {
	m := DefaultMapping(topo())
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// 32B columns → 5 byte bits; 2048/32 = 64 columns → 6 column bits.
	if m.ColLo != 5 || m.ColBits != 6 {
		t.Errorf("column field [%d,%d)", m.ColLo, m.ColLo+m.ColBits)
	}
	if m.BankLo != 11 {
		t.Errorf("bank field starts at %d", m.BankLo)
	}
	if m.TotalBanks != 96 {
		t.Errorf("total banks = %d", m.TotalBanks)
	}
}

func TestMappingValidateRejectsGaps(t *testing.T) {
	m := DefaultMapping(topo())
	m.BankLo++ // gap between column and bank fields
	if err := m.Validate(); err == nil {
		t.Error("gapped mapping should fail validation")
	}
	m = DefaultMapping(topo())
	m.TotalBanks = 0
	if err := m.Validate(); err == nil {
		t.Error("zero banks should fail validation")
	}
	m = DefaultMapping(topo())
	m.BankBits = 2 // 4 < 96 banks
	m.RowLo = m.BankLo + 2
	if err := m.Validate(); err == nil {
		t.Error("insufficient bank bits should fail validation")
	}
}

// Property: flipping a column bit never changes bank or row; flipping a row
// bit never changes the bank; flipping a bank bit always changes the bank.
func TestMappingBitSemantics(t *testing.T) {
	m := DefaultMapping(topo())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		addr := uint64(r.Int63()) & ((1 << 40) - 1)
		for bit := uint(0); bit < m.RowLo+m.RowBits; bit++ {
			flip := addr ^ (1 << bit)
			switch {
			case m.IsColumnBit(bit) || bit < m.ColLo:
				if m.Bank(flip) != m.Bank(addr) || m.Row(flip) != m.Row(addr) {
					return false
				}
			case m.IsBankBit(bit):
				if m.Bank(flip) == m.Bank(addr) {
					return false
				}
			case m.IsRowBit(bit):
				if m.Bank(flip) != m.Bank(addr) || m.Row(flip) == m.Row(addr) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRowBufferStateMachine(t *testing.T) {
	var rb RowBuffer
	if got := rb.Access(5); got != Miss {
		t.Errorf("first access = %v, want miss", got)
	}
	if got := rb.Access(5); got != Hit {
		t.Errorf("same row = %v, want hit", got)
	}
	if got := rb.Access(9); got != Conflict {
		t.Errorf("different row = %v, want conflict", got)
	}
	if got := rb.Access(9); got != Hit {
		t.Errorf("row opened by the conflict = %v, want hit", got)
	}
	if got := rb.Access(5); got != Conflict {
		t.Errorf("previous row = %v, want conflict", got)
	}
	rb = RowBuffer{}
	if got := rb.Access(5); got != Miss {
		t.Errorf("empty row buffer = %v, want miss", got)
	}
}

func TestOutcomeLatencies(t *testing.T) {
	tp := topo()
	if Hit.ServiceNS(tp) != 352 || Miss.ServiceNS(tp) != 742 || Conflict.ServiceNS(tp) != 1008 {
		t.Error("access latencies must match the paper's K80 measurements")
	}
	if !(Hit.BusyNS(tp) < Miss.BusyNS(tp) && Miss.BusyNS(tp) < Conflict.BusyNS(tp)) {
		t.Error("occupancies must order hit < miss < conflict")
	}
	for _, o := range []Outcome{Hit, Miss, Conflict} {
		if o.BusyNS(tp) >= o.ServiceNS(tp) {
			t.Errorf("%v occupancy %g should be far below latency %g", o, o.BusyNS(tp), o.ServiceNS(tp))
		}
	}
}

func TestOutcomeCounts(t *testing.T) {
	var c OutcomeCounts
	c.Add(Hit)
	c.Add(Hit)
	c.Add(Miss)
	c.Add(Conflict)
	if c.Total() != 4 {
		t.Errorf("total = %d", c.Total())
	}
	h, m, cf := c.Ratios()
	if h != 0.5 || m != 0.25 || cf != 0.25 {
		t.Errorf("ratios = %g,%g,%g", h, m, cf)
	}
	tp := topo()
	want := 0.5*352 + 0.25*742 + 0.25*1008
	if got := c.AvgServiceNS(tp); got != want {
		t.Errorf("avg service = %g, want %g", got, want)
	}
	var empty OutcomeCounts
	if h, m, cf := empty.Ratios(); h != 0 || m != 0 || cf != 0 {
		t.Error("empty ratios should be zero")
	}
}

func TestSystemUncontendedLatency(t *testing.T) {
	tp := topo()
	s := NewSystem(tp, DefaultMapping(tp))
	// Far-apart arrivals: first touch misses, second same-row hits, third
	// (different row, same bank) conflicts.
	r1 := s.Service(0, 0)
	if r1.Outcome != Miss || r1.Latency(0) != 742 {
		t.Errorf("first: %v %g", r1.Outcome, r1.Latency(0))
	}
	r2 := s.Service(32, 1e6)
	if r2.Outcome != Hit || r2.Latency(1e6) != 352 {
		t.Errorf("second: %v %g", r2.Outcome, r2.Latency(1e6))
	}
	rowStride := uint64(1) << DefaultMapping(tp).RowLo
	r3 := s.Service(rowStride, 2e6)
	if r3.Outcome != Conflict || r3.Latency(2e6) != 1008 {
		t.Errorf("third: %v %g", r3.Outcome, r3.Latency(2e6))
	}
}

func TestSystemBankQueueing(t *testing.T) {
	tp := topo()
	s := NewSystem(tp, DefaultMapping(tp))
	// Two same-row requests arriving together: the second starts only after
	// the first's occupancy, not its full latency.
	r1 := s.Service(0, 0)
	r2 := s.Service(32, 0)
	if r2.Start != r1.Start+Miss.BusyNS(tp) {
		t.Errorf("second start = %g, want %g", r2.Start, r1.Start+Miss.BusyNS(tp))
	}
	if r2.Outcome != Hit {
		t.Errorf("second outcome = %v", r2.Outcome)
	}
}

func TestSystemControllerBusSerializes(t *testing.T) {
	tp := topo()
	m := DefaultMapping(tp)
	s := NewSystem(tp, m)
	// Two simultaneous requests to different banks on the same controller:
	// the second waits one bus slot.
	bankStride := uint64(1) << m.BankLo
	var a, b uint64 = 0, 0
	found := false
	for i := 1; i < 128 && !found; i++ {
		cand := uint64(i) * bankStride
		if m.Bank(cand) != m.Bank(a) &&
			Controller(m.Bank(cand), tp.Controllers) == Controller(m.Bank(a), tp.Controllers) {
			b, found = cand, true
		}
	}
	if !found {
		t.Fatal("no same-controller bank pair found")
	}
	r1 := s.Service(a, 0)
	r2 := s.Service(b, 0)
	if r2.Start != r1.Start+tp.CtlBusyNS {
		t.Errorf("bus serialization: second start %g, want %g", r2.Start, r1.Start+tp.CtlBusyNS)
	}
}

func TestSystemParallelBanks(t *testing.T) {
	tp := topo()
	m := DefaultMapping(tp)
	s := NewSystem(tp, m)
	// Requests to banks on different controllers at the same instant start
	// immediately — bank-level parallelism.
	bankStride := uint64(1) << m.BankLo
	r1 := s.Service(0, 0)
	r2 := s.Service(bankStride, 0) // bank+1 → next controller (round-robin)
	if Controller(m.Bank(0), tp.Controllers) == Controller(m.Bank(bankStride), tp.Controllers) {
		t.Fatal("test assumption broken: same controller")
	}
	if r1.Start != 0 || r2.Start != 0 {
		t.Errorf("parallel banks: starts %g, %g", r1.Start, r2.Start)
	}
}

func TestSystemCountsAndReset(t *testing.T) {
	tp := topo()
	s := NewSystem(tp, DefaultMapping(tp))
	s.Service(0, 0)
	s.Service(32, 100)
	if s.Counts().Total() != 2 {
		t.Errorf("counts = %+v", s.Counts())
	}
	s.Reset()
	if s.Counts().Total() != 0 {
		t.Error("reset must clear counts")
	}
	// Without the reset, bank 0 and its controller would still be busy at
	// time 0 and its row open.
	r := s.Service(0, 0)
	if r.Outcome != Miss {
		t.Errorf("first access after reset = %v, want miss (row buffers closed)", r.Outcome)
	}
	if r.Start != 0 {
		t.Errorf("first access after reset starts at %g, want its arrival 0 (banks and buses free)", r.Start)
	}
}

func TestAnalyzerMatchesManualReplay(t *testing.T) {
	tp := topo()
	m := DefaultMapping(tp)
	a := NewAnalyzer(tp, Mapped)
	// Same bank, same row, then different row: miss, hit, conflict.
	rowStride := uint64(1) << m.RowLo
	if got := a.Add(0, 0); got != Miss {
		t.Errorf("first = %v", got)
	}
	if got := a.Add(64, 10); got != Hit {
		t.Errorf("second = %v", got)
	}
	if got := a.Add(rowStride, 20); got != Conflict {
		t.Errorf("third = %v", got)
	}
	c := a.Counts()
	if c.Hits != 1 || c.Misses != 1 || c.Conflicts != 1 {
		t.Errorf("counts = %+v", c)
	}
	streams := a.Streams()
	if len(streams) != 1 {
		t.Fatalf("streams = %d", len(streams))
	}
	st := streams[0]
	if st.N != 3 {
		t.Errorf("stream N = %d", st.N)
	}
	if st.TauA != 10 {
		t.Errorf("stream tauA = %g", st.TauA)
	}
	wantAccess := (352.0 + 742.0 + 1008.0) / 3
	if st.AccessNS != wantAccess {
		t.Errorf("access = %g, want %g", st.AccessNS, wantAccess)
	}
}

func TestAnalyzerEvenModeSpreadsRoundRobin(t *testing.T) {
	tp := topo()
	a := NewAnalyzer(tp, Even)
	// All requests to the same address: in Even mode they round-robin over
	// banks, so every one is a first-touch miss until wraparound.
	for i := 0; i < tp.TotalBanks(); i++ {
		if got := a.Add(0, float64(i)); got != Miss {
			t.Fatalf("request %d = %v, want miss", i, got)
		}
	}
	if got := a.Add(0, 1000); got != Hit {
		t.Errorf("wraparound = %v, want hit", got)
	}
}

func TestAnalyzerBatchDetection(t *testing.T) {
	tp := topo()
	a := NewAnalyzer(tp, Mapped)
	// Four same-bank requests in one burst, then four in a later burst:
	// batch size must be about 4.
	for burst := 0; burst < 2; burst++ {
		base := float64(burst) * 1e6
		for i := 0; i < 4; i++ {
			a.Add(uint64(i)*32, base+float64(i)*0.1)
		}
	}
	st := a.Streams()
	if len(st) != 1 {
		t.Fatalf("streams = %d", len(st))
	}
	if st[0].Batch < 3.5 || st[0].Batch > 4.5 {
		t.Errorf("batch = %g, want ≈ 4", st[0].Batch)
	}
}

func TestAnalyzerCtlStreams(t *testing.T) {
	tp := topo()
	m := DefaultMapping(tp)
	a := NewAnalyzer(tp, Mapped)
	bankStride := uint64(1) << m.BankLo
	for i := 0; i < 12; i++ {
		a.Add(uint64(i)*bankStride, float64(i))
	}
	cs := a.CtlStreams()
	if len(cs) != tp.Controllers {
		t.Fatalf("ctl streams = %d, want %d", len(cs), tp.Controllers)
	}
	var n int64
	for _, s := range cs {
		n += s.N
		if s.TauS != tp.CtlBusyNS {
			t.Errorf("ctl service = %g", s.TauS)
		}
	}
	if n != 12 {
		t.Errorf("ctl requests = %d", n)
	}
}

func TestMeanCa(t *testing.T) {
	tp := topo()
	a := NewAnalyzer(tp, Mapped)
	// Regular arrivals on one bank: c_a ≈ 0.
	for i := 0; i < 50; i++ {
		a.Add(uint64(i%4)*32, float64(i)*100)
	}
	mean, std := a.MeanCa()
	if mean > 0.05 {
		t.Errorf("regular arrivals ca = %g", mean)
	}
	if std != 0 {
		t.Errorf("single-bank std = %g", std)
	}
}
