// Package queuing implements the G/G/1 queuing approximation the paper uses
// for per-bank DRAM queuing delay (§III-C3, Eq 9–10), plus reference M/M/1
// and classical-Kingman variants for comparison.
//
// Each DRAM bank is modeled as a single server fed by a general arrival
// stream (GPU memory requests arrive in clumps; their inter-arrival
// coefficient of variation c_a can be well above 1) with general service
// times (clustered at the row-buffer hit / miss / conflict latencies).
package queuing

import "fmt"

// Variant selects the queuing-delay approximation.
type Variant uint8

const (
	// PaperKingman is Eq 9 exactly as printed in the paper:
	//   W_q ≈ ((c_a + c_s)/2) · (ρ/(1−ρ)) · τ_a
	PaperKingman Variant = iota
	// ClassicKingman is Kingman's standard heavy-traffic approximation:
	//   W_q ≈ ((c_a² + c_s²)/2) · (ρ/(1−ρ)) · τ_s
	ClassicKingman
	// MM1 is the Markovian reference (c_a = c_s = 1):
	//   W_q = (ρ/(1−ρ)) · τ_s
	MM1
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case PaperKingman:
		return "paper-kingman"
	case ClassicKingman:
		return "classic-kingman"
	case MM1:
		return "mm1"
	}
	return fmt.Sprintf("Variant(%d)", uint8(v))
}

// MaxUtilization caps ρ so the (1−ρ) denominator stays finite: a bank driven
// beyond saturation in the trace is reported as deeply congested rather than
// infinitely slow, matching the closed system (bounded outstanding requests
// per SM) the formula approximates.
const MaxUtilization = 0.995

// Stream summarizes the arrival and service processes observed at one
// server (one memory bank): mean and standard deviation of inter-arrival
// times (τ_a, σ_a) and service times (τ_s, σ_s), in any consistent time
// unit.
type Stream struct {
	TauA, SigmaA float64 // inter-arrival mean / stddev
	TauS, SigmaS float64 // service (occupancy) mean / stddev
	// AccessNS is the mean end-to-end access latency of the server's
	// requests (row-buffer-dependent, Eq 8). For DRAM banks the occupancy
	// TauS bounds throughput and hence queuing, while AccessNS is what a
	// request experiences once served. Zero means "use TauS".
	AccessNS float64
	// Batch is the mean arrival batch size: GPU memory requests "arrive in
	// clumps" (§III-C3); a batch of B requests hitting an idle server still
	// waits (B−1)/2 services on average, a delay the heavy-traffic Kingman
	// term misses at low utilization.
	Batch float64
	N     int64 // number of requests observed
}

// Ca returns the coefficient of variation of the inter-arrival times
// (Eq 10).
func (s Stream) Ca() float64 {
	if s.TauA == 0 {
		return 0
	}
	return s.SigmaA / s.TauA
}

// Cs returns the coefficient of variation of the service times (Eq 10).
func (s Stream) Cs() float64 {
	if s.TauS == 0 {
		return 0
	}
	return s.SigmaS / s.TauS
}

// Lambda returns the average arrival rate λ = 1/τ_a.
func (s Stream) Lambda() float64 {
	if s.TauA == 0 {
		return 0
	}
	return 1 / s.TauA
}

// Rho returns the server utilization ρ = τ_s/τ_a, capped at MaxUtilization.
func (s Stream) Rho() float64 {
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

// QueuingDelay returns the average queuing delay W_q for the stream under
// the chosen variant, in the stream's time unit.
func QueuingDelay(s Stream, v Variant) float64 {
	if s.N == 0 || s.TauA == 0 || s.TauS == 0 {
		return 0
	}
	rho := s.Rho()
	congestion := rho / (1 - rho)
	// Batch-arrival correction (M[X]/G/1-style): each request in a batch of
	// B waits on average (B−1)/2 services of its batch-mates, regardless of
	// long-run utilization.
	batch := 0.0
	if s.Batch > 1 {
		batch = (s.Batch - 1) / 2 * s.TauS
	}
	// The heavy-traffic term diverges as ρ approaches the cap; physically, a
	// request can never wait longer than the server's entire backlog over
	// the observation window, N services.
	backlog := float64(s.N) * s.TauS
	var w float64
	switch v {
	case PaperKingman:
		w = (s.Ca() + s.Cs()) / 2 * congestion * s.TauA
	case ClassicKingman:
		ca, cs := s.Ca(), s.Cs()
		w = (ca*ca + cs*cs) / 2 * congestion * s.TauS
	case MM1:
		return congestion * s.TauS
	}
	if w > backlog {
		w = backlog
	}
	// Burstiness drives both terms — the heavy-traffic term through c_a and
	// the batch term directly — so summing them double-counts; the larger
	// one dominates the wait.
	if batch > w {
		return batch
	}
	return w
}

// BankLatency returns the average memory access latency of one bank:
// queuing delay plus average service latency (Eq 6).
func BankLatency(s Stream, v Variant) float64 {
	access := s.AccessNS
	if access == 0 {
		access = s.TauS
	}
	return QueuingDelay(s, v) + access
}

// SystemLatency combines per-bank latencies into the system-wide average
// DRAM access latency, weighting each bank by its arrival rate (Eq 7).
// Over a common observation window the arrival rate λ_i is proportional to
// the bank's request count, so the weights are the per-bank N values — this
// avoids over-weighting banks whose few requests arrive in one tight burst.
//
// Each bank's inter-arrival statistics are first stretched by dilation, a
// pure time-dilation that preserves every c_a (1 leaves them as measured);
// the banks are copied by value, so the caller's streams are untouched.
func SystemLatency(banks []Stream, dilation float64, v Variant) float64 {
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
		acc += float64(b.N) / sumN * BankLatency(b, v)
	}
	return acc
}
