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

// Cs returns the coefficient of variation of the service times (Eq 10).
func (s Stream) Cs() float64 { return cov(s.SigmaS, s.TauS) }

// cov is Eq 10's coefficient of variation σ/τ, 0 when τ is.
func cov(sigma, tau float64) float64 {
	if tau == 0 {
		return 0
	}
	return sigma / tau
}

// utilization is ρ = τ_s/τ_a, capped at MaxUtilization and floored at 0;
// 0 when τ_a is.
func utilization(tauS, tauA float64) float64 {
	if tauA == 0 {
		return 0
	}
	rho := tauS / tauA
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
	if s.N == 0 {
		return 0
	}
	sv := prepare(s)
	return sv.delay(1, v)
}

// server is one stream prepared for repeated evaluation under a time
// dilation f: the inter-arrival statistics, which f scales, are kept as
// measured; every term f leaves alone is computed once.
type server struct {
	tauA, sigmaA float64 // inter-arrival mean / stddev at f = 1
	tauS         float64 // service mean
	cs           float64 // c_s = σ_s/τ_s (Eq 10)
	batch        float64 // batch wait (B−1)/2·τ_s, 0 when B ≤ 1
	backlog      float64 // backlog cap N·τ_s
	access       float64 // mean access latency: AccessNS, or τ_s when 0
	w            float64 // weight in the network's latency mean
}

// prepare computes a stream's dilation-free terms.
func prepare(s Stream) server {
	sv := server{
		tauA:    s.TauA,
		sigmaA:  s.SigmaA,
		tauS:    s.TauS,
		cs:      s.Cs(),
		backlog: float64(s.N) * s.TauS,
		access:  s.AccessNS,
	}
	// Batch-arrival correction (M[X]/G/1-style): each request in a batch of
	// B waits on average (B−1)/2 services of its batch-mates, regardless of
	// long-run utilization.
	if s.Batch > 1 {
		sv.batch = (s.Batch - 1) / 2 * s.TauS
	}
	if sv.access == 0 {
		sv.access = s.TauS
	}
	return sv
}

// delay is Eq 9: the server's average queuing delay W_q under variant v
// with its inter-arrival statistics stretched by f. It is the only
// implementation of the formula.
func (s *server) delay(f float64, v Variant) float64 {
	ta := s.tauA * f
	if ta == 0 || s.tauS == 0 {
		return 0
	}
	rho := utilization(s.tauS, ta)
	congestion := rho / (1 - rho)
	var w float64
	switch v {
	case PaperKingman:
		ca := cov(s.sigmaA*f, ta)
		w = (ca + s.cs) / 2 * congestion * ta
	case ClassicKingman:
		ca := cov(s.sigmaA*f, ta)
		w = (ca*ca + s.cs*s.cs) / 2 * congestion * s.tauS
	case MM1:
		return congestion * s.tauS
	}
	// The heavy-traffic term diverges as ρ approaches the cap; physically, a
	// request can never wait longer than the server's entire backlog over
	// the observation window, N services.
	if w > s.backlog {
		w = s.backlog
	}
	// Burstiness drives both terms — the heavy-traffic term through c_a and
	// the batch term directly — so summing them double-counts; the larger
	// one dominates the wait.
	if s.batch > w {
		return s.batch
	}
	return w
}

// Network is the two-stage queuing network of one DRAM analysis, prepared
// once and then evaluated at any time dilation: the banks (Eq 6–10) and,
// composed behind them, the memory controllers' data buses. Only streams
// that saw requests are kept. A Network is read-only after NewNetwork and
// safe for concurrent use.
type Network struct {
	servers []server // bank servers, then controller servers
	banks   int      // number of bank servers
	ctlN    float64  // ΣN over the controller servers
}

// NewNetwork prepares the network of the given bank and controller streams
// in one slice sized for all of them. Streams with N = 0 are dropped.
func NewNetwork(banks, ctls []Stream) Network {
	// Eq 7 weights each bank by its arrival rate. Over a common observation
	// window λ_i is proportional to the bank's request count, so the weights
	// are the per-bank N values — this avoids over-weighting banks whose few
	// requests arrive in one tight burst.
	var sumN float64
	for i := range banks {
		sumN += float64(banks[i].N)
	}
	n := Network{servers: make([]server, 0, len(banks)+len(ctls))}
	for _, s := range banks {
		if s.N == 0 {
			continue
		}
		sv := prepare(s)
		sv.w = float64(s.N) / sumN
		n.servers = append(n.servers, sv)
	}
	n.banks = len(n.servers)
	// The controllers' delays are averaged over their requests.
	for _, s := range ctls {
		if s.N == 0 {
			continue
		}
		sv := prepare(s)
		sv.w = float64(s.N)
		n.ctlN += sv.w
		n.servers = append(n.servers, sv)
	}
	return n
}

// Banks returns the number of bank servers that saw requests.
func (n *Network) Banks() int { return n.banks }

// Latency returns the system-wide average access latency at the given time
// dilation of every inter-arrival statistic (1 leaves them as measured; a
// pure dilation preserves every c_a). Each bank's latency is its queuing
// delay plus its access latency (Eq 6), weighted by its share of the
// requests (Eq 7). The network is composable: the controllers' mean
// queuing delay adds to every request's latency.
func (n *Network) Latency(dilation float64, v Variant) float64 {
	var lat float64
	banks, ctls := n.servers[:n.banks], n.servers[n.banks:]
	for i := range banks {
		s := &banks[i]
		lat += s.w * (s.delay(dilation, v) + s.access)
	}
	if n.ctlN > 0 {
		var delay float64
		for i := range ctls {
			s := &ctls[i]
			delay += s.w * s.delay(dilation, v)
		}
		lat += delay / n.ctlN
	}
	return lat
}
