package queuing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStreamDerivedQuantities(t *testing.T) {
	s := Stream{TauA: 10, SigmaA: 5, TauS: 4, SigmaS: 2, N: 100}
	if got := s.Ca(); got != 0.5 {
		t.Errorf("Ca = %g", got)
	}
	if got := s.Cs(); got != 0.5 {
		t.Errorf("Cs = %g", got)
	}
	if got := s.Lambda(); got != 0.1 {
		t.Errorf("Lambda = %g", got)
	}
	if got := s.Rho(); got != 0.4 {
		t.Errorf("Rho = %g", got)
	}
}

func TestRhoCap(t *testing.T) {
	// Overloaded server: ρ computed > 1 must be capped below 1 so the
	// congestion term stays finite.
	s := Stream{TauA: 1, TauS: 10, N: 10}
	if rho := s.Rho(); rho != MaxUtilization {
		t.Errorf("Rho = %g, want cap %g", rho, MaxUtilization)
	}
	if w := QueuingDelay(s, PaperKingman); math.IsInf(w, 1) || math.IsNaN(w) {
		t.Errorf("overloaded delay = %g", w)
	}
}

func TestZeroStreams(t *testing.T) {
	if w := QueuingDelay(Stream{}, PaperKingman); w != 0 {
		t.Errorf("empty stream delay = %g", w)
	}
	if w := QueuingDelay(Stream{TauA: 5, N: 3}, PaperKingman); w != 0 {
		t.Errorf("no-service stream delay = %g", w)
	}
}

func TestMM1MatchesClosedForm(t *testing.T) {
	// M/M/1: W_q = ρ/(1−ρ)·τ_s.
	s := Stream{TauA: 10, SigmaA: 10, TauS: 5, SigmaS: 5, N: 1000}
	want := 0.5 / 0.5 * 5.0
	if got := QueuingDelay(s, MM1); math.Abs(got-want) > 1e-12 {
		t.Errorf("MM1 delay = %g, want %g", got, want)
	}
}

func TestPaperKingmanFormula(t *testing.T) {
	// Eq 9 as printed: ((c_a+c_s)/2)·(ρ/(1−ρ))·τ_a, below the backlog cap.
	s := Stream{TauA: 10, SigmaA: 10, TauS: 5, SigmaS: 0, N: 1000}
	// c_a=1, c_s=0, ρ=0.5 → 0.5·1·10 = 5.
	if got := QueuingDelay(s, PaperKingman); math.Abs(got-5) > 1e-12 {
		t.Errorf("paper Kingman delay = %g, want 5", got)
	}
}

func TestClassicKingmanFormula(t *testing.T) {
	// ((c_a²+c_s²)/2)·(ρ/(1−ρ))·τ_s.
	s := Stream{TauA: 10, SigmaA: 10, TauS: 5, SigmaS: 0, N: 1000}
	// (1+0)/2 · 1 · 5 = 2.5.
	if got := QueuingDelay(s, ClassicKingman); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("classic Kingman delay = %g, want 2.5", got)
	}
}

func TestBacklogCap(t *testing.T) {
	// Extremely bursty arrivals with few requests: the congestion term must
	// not exceed N·τ_s.
	s := Stream{TauA: 0.001, SigmaA: 10, TauS: 5, SigmaS: 0, N: 8}
	w := QueuingDelay(s, PaperKingman)
	if w > float64(s.N)*s.TauS+1e-9 {
		t.Errorf("delay %g exceeds backlog bound %g", w, float64(s.N)*s.TauS)
	}
}

func TestBatchTerm(t *testing.T) {
	// A batch of B arrivals at an idle server waits (B−1)/2 services on
	// average even at negligible utilization.
	s := Stream{TauA: 1000, SigmaA: 0, TauS: 4, SigmaS: 0, Batch: 9, N: 900}
	w := QueuingDelay(s, PaperKingman)
	want := 4.0 * 4 // (9−1)/2 × 4
	if math.Abs(w-want) > 0.5 {
		t.Errorf("batch delay = %g, want ≈ %g", w, want)
	}
	// Batch ≤ 1 adds nothing.
	s.Batch = 1
	if w := QueuingDelay(s, PaperKingman); w > 0.1 {
		t.Errorf("no-batch delay = %g", w)
	}
}

// Property: queuing delay is non-negative and, for fixed service process,
// non-decreasing as arrivals speed up (τ_a shrinks).
func TestDelayMonotoneInArrivalRate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tauS := 1 + r.Float64()*10
		sigmaS := r.Float64() * tauS
		sigmaA := r.Float64() * 20
		n := int64(10 + r.Intn(1000))
		prev := -1.0
		for _, tauA := range []float64{100, 50, 25, 12, 6, 3} {
			s := Stream{TauA: tauA, SigmaA: sigmaA, TauS: tauS, SigmaS: sigmaS, N: n}
			w := QueuingDelay(s, ClassicKingman)
			if w < 0 || w+1e-9 < prev {
				return false
			}
			prev = w
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBankLatencyUsesAccessLatency(t *testing.T) {
	// With a separate access latency set, the bank latency is Wq + access,
	// not Wq + occupancy.
	s := Stream{TauA: 100, SigmaA: 0, TauS: 8, SigmaS: 0, AccessNS: 352, N: 50}
	wq := QueuingDelay(s, PaperKingman)
	if got := BankLatency(s, PaperKingman); math.Abs(got-(wq+352)) > 1e-9 {
		t.Errorf("BankLatency = %g, want %g", got, wq+352)
	}
	// Without AccessNS, fall back to TauS.
	s.AccessNS = 0
	if got := BankLatency(s, PaperKingman); math.Abs(got-(wq+8)) > 1e-9 {
		t.Errorf("BankLatency fallback = %g, want %g", got, wq+8)
	}
}

func TestSystemLatencyWeighting(t *testing.T) {
	// Eq 7: banks weighted by their request counts.
	a := Stream{TauA: 100, TauS: 8, AccessNS: 300, N: 300}
	b := Stream{TauA: 100, TauS: 8, AccessNS: 600, N: 100}
	got := SystemLatency([]Stream{a, b}, 1, MM1)
	la, lb := BankLatency(a, MM1), BankLatency(b, MM1)
	want := 0.75*la + 0.25*lb
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("SystemLatency = %g, want %g", got, want)
	}
	if SystemLatency(nil, 1, MM1) != 0 {
		t.Error("empty system should be 0")
	}
	if SystemLatency([]Stream{{N: 0}}, 1, MM1) != 0 {
		t.Error("all-idle system should be 0")
	}
}

func TestVariantString(t *testing.T) {
	for v, want := range map[Variant]string{
		PaperKingman:   "paper-kingman",
		ClassicKingman: "classic-kingman",
		MM1:            "mm1",
		Variant(9):     "Variant(9)",
	} {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", v, got, want)
		}
	}
}

func TestStreamFromSamples(t *testing.T) {
	s := StreamFromSamples([]float64{2, 4, 6}, []float64{1, 1, 1, 1})
	if s.TauA != 4 || s.TauS != 1 || s.N != 4 {
		t.Errorf("unexpected stream %+v", s)
	}
	if s.SigmaS != 0 {
		t.Errorf("constant service stddev = %g", s.SigmaS)
	}
}
