package queuing

import (
	"math"
	"math/rand"
	"testing"
)

// The ref* functions are a reference copy of the composition the prepared
// Network replaces: Eq 9 per stream with every term recomputed from the
// dilated stream, Eq 6–7 as the λ-weighted sum of per-bank latencies, the
// controllers' N-weighted mean delay added on top, and the uncontended
// service floor the model applies last. The Network must match it bit for
// bit.

func refCa(s Stream) float64 {
	if s.TauA == 0 {
		return 0
	}
	return s.SigmaA / s.TauA
}

func refCs(s Stream) float64 {
	if s.TauS == 0 {
		return 0
	}
	return s.SigmaS / s.TauS
}

func refRho(s Stream) float64 {
	if s.TauA == 0 {
		return 0
	}
	rho := s.TauS / s.TauA
	if rho > MaxUtilization {
		rho = MaxUtilization
	}
	if rho < 0 {
		rho = 0
	}
	return rho
}

func refQueuingDelay(s Stream, v Variant) float64 {
	if s.N == 0 || s.TauA == 0 || s.TauS == 0 {
		return 0
	}
	rho := refRho(s)
	congestion := rho / (1 - rho)
	batch := 0.0
	if s.Batch > 1 {
		batch = (s.Batch - 1) / 2 * s.TauS
	}
	backlog := float64(s.N) * s.TauS
	var w float64
	switch v {
	case PaperKingman:
		w = (refCa(s) + refCs(s)) / 2 * congestion * s.TauA
	case ClassicKingman:
		ca, cs := refCa(s), refCs(s)
		w = (ca*ca + cs*cs) / 2 * congestion * s.TauS
	case MM1:
		return congestion * s.TauS
	}
	if w > backlog {
		w = backlog
	}
	if batch > w {
		return batch
	}
	return w
}

func refBankLatency(s Stream, v Variant) float64 {
	access := s.AccessNS
	if access == 0 {
		access = s.TauS
	}
	return refQueuingDelay(s, v) + access
}

func refSystemLatency(banks []Stream, dilation float64, v Variant) float64 {
	var sumN, acc float64
	for _, b := range banks {
		sumN += float64(b.N)
	}
	if sumN == 0 {
		return 0
	}
	for _, b := range banks {
		if b.N == 0 {
			continue
		}
		b.TauA *= dilation
		b.SigmaA *= dilation
		acc += float64(b.N) / sumN * refBankLatency(b, v)
	}
	return acc
}

// refLatency is the full reference: bank stage, controller stage, floor.
func refLatency(banks, ctls []Stream, dilation, floor float64, v Variant) float64 {
	lat := refSystemLatency(banks, dilation, v)
	var ctlN, ctlDelay float64
	for _, s := range ctls {
		s.TauA *= dilation
		s.SigmaA *= dilation
		ctlDelay += float64(s.N) * refQueuingDelay(s, v)
		ctlN += float64(s.N)
	}
	if ctlN > 0 {
		lat += ctlDelay / ctlN
	}
	if lat < floor {
		lat = floor
	}
	return lat
}

// netLatency evaluates the Network the way the model does: Latency, then
// the service floor.
func netLatency(n *Network, dilation, floor float64, v Variant) float64 {
	lat := n.Latency(dilation, v)
	if lat < floor {
		lat = floor
	}
	return lat
}

var variants = []Variant{PaperKingman, ClassicKingman, MM1}

// checkNetwork compares the Network with the reference at one dilation for
// every variant, bit for bit, and each single stream's QueuingDelay with the
// reference Eq 9.
func checkNetwork(t *testing.T, name string, banks, ctls []Stream, dilation, floor float64) {
	t.Helper()
	net := NewNetwork(banks, ctls)
	for _, v := range variants {
		got := netLatency(&net, dilation, floor, v)
		want := refLatency(banks, ctls, dilation, floor, v)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s %v dilation %v: Latency %v (%#x), reference %v (%#x)",
				name, v, dilation, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		for i, s := range append(banks[:len(banks):len(banks)], ctls...) {
			if got, want := QueuingDelay(s, v), refQueuingDelay(s, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s %v stream %d: QueuingDelay %v, reference %v", name, v, i, got, want)
			}
		}
	}
}

// randStream draws a stream that hits the formula's edge cases often: zero
// τ_a or τ_s, batches at or below 1, utilization over the cap, the backlog
// cap binding, no access latency, and idle streams.
func randStream(r *rand.Rand) Stream {
	s := Stream{
		TauA:     r.ExpFloat64() * 50,
		SigmaA:   r.ExpFloat64() * 80,
		TauS:     r.ExpFloat64() * 10,
		SigmaS:   r.ExpFloat64() * 5,
		AccessNS: 300 + r.Float64()*700,
		Batch:    r.Float64() * 8,
		N:        1 + r.Int63n(5000),
	}
	switch r.Intn(10) {
	case 0:
		s.TauA, s.SigmaA = 0, 0
	case 1:
		s.TauS, s.SigmaS = 0, 0
	case 2:
		s.Batch = float64(r.Intn(2))
	case 3:
		s.TauA = s.TauS * r.Float64() // ρ over the cap
	case 4:
		s.N = 1 + r.Int63n(4) // few requests: the backlog cap binds
		s.SigmaA *= 100
	case 5:
		s.AccessNS = 0
	case 6:
		s.N = 0
	}
	return s
}

// randNetwork draws up to maxBanks bank streams and up to maxCtls
// controller streams with a constant controller service time.
func randNetwork(r *rand.Rand, maxBanks, maxCtls int) (banks, ctls []Stream) {
	banks = make([]Stream, r.Intn(maxBanks+1))
	for i := range banks {
		banks[i] = randStream(r)
	}
	ctls = make([]Stream, r.Intn(maxCtls+1))
	busy := r.Float64() * 4
	for i := range ctls {
		s := randStream(r)
		s.TauS, s.SigmaS, s.AccessNS = busy, 0, 0
		ctls[i] = s
	}
	return banks, ctls
}

func TestNetworkMatchesReference(t *testing.T) {
	cases := []struct {
		name        string
		banks, ctls []Stream
		dilation    float64
	}{
		{"empty", nil, nil, 1},
		{"single bank", []Stream{{TauA: 10, SigmaA: 30, TauS: 8, SigmaS: 2, AccessNS: 400, Batch: 4, N: 500}}, nil, 1.7},
		{"tau_a zero", []Stream{{TauA: 0, SigmaA: 0, TauS: 8, SigmaS: 2, AccessNS: 400, Batch: 3, N: 7}}, nil, 2},
		{"tau_s zero", []Stream{{TauA: 10, SigmaA: 3, TauS: 0, AccessNS: 400, N: 9}}, nil, 2},
		{"batch at most 1", []Stream{
			{TauA: 1000, SigmaA: 10, TauS: 4, SigmaS: 1, AccessNS: 350, Batch: 1, N: 900},
			{TauA: 1000, SigmaA: 10, TauS: 4, SigmaS: 1, AccessNS: 350, Batch: 0.5, N: 100},
		}, nil, 1},
		{"rho over cap", []Stream{{TauA: 1, SigmaA: 2, TauS: 10, SigmaS: 1, AccessNS: 500, N: 40}}, nil, 1.01},
		{"backlog cap binds", []Stream{{TauA: 0.001, SigmaA: 10, TauS: 5, AccessNS: 400, N: 8}}, nil, 1},
		{"idle bank", []Stream{{N: 0}, {TauA: 20, SigmaA: 20, TauS: 6, SigmaS: 3, AccessNS: 700, Batch: 2, N: 30}}, nil, 3},
		{"zero dilation", []Stream{{TauA: 20, SigmaA: 20, TauS: 6, AccessNS: 700, N: 30}}, nil, 0},
		{"controllers only", nil, []Stream{{TauA: 5, SigmaA: 9, TauS: 1.5, Batch: 2, N: 60}}, 1.3},
		{"banks and controllers", []Stream{
			{TauA: 40, SigmaA: 90, TauS: 8, SigmaS: 4, AccessNS: 420, Batch: 3.5, N: 1200},
			{TauA: 35, SigmaA: 20, TauS: 9, SigmaS: 1, Batch: 1, N: 800},
		}, []Stream{
			{TauA: 12, SigmaA: 30, TauS: 1.5, Batch: 2.5, N: 1500},
			{TauA: 0, TauS: 1.5, N: 1},
			{TauA: 14, SigmaA: 14, TauS: 1.5, Batch: 1, N: 0},
		}, 2.25},
	}
	for _, c := range cases {
		checkNetwork(t, c.name, c.banks, c.ctls, c.dilation, 0)
		checkNetwork(t, c.name+" floored", c.banks, c.ctls, c.dilation, 450)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		banks, ctls := randNetwork(r, 64, 8)
		checkNetwork(t, "random", banks, ctls, r.ExpFloat64()*4, r.Float64()*600)
	}
}

func FuzzNetworkMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(1+seed*30), uint8(seed*2), 1+float64(seed)/3)
	}
	f.Add(int64(99), uint8(1), uint8(0), 0.0)
	f.Fuzz(func(t *testing.T, seed int64, nb, nc uint8, dilation float64) {
		if math.IsNaN(dilation) || math.IsInf(dilation, 0) {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		banks, ctls := randNetwork(r, int(nb), int(nc)%32)
		checkNetwork(t, "fuzz", banks, ctls, math.Abs(dilation), r.Float64()*600)
	})
}
