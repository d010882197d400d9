package core

import "gpuhms/internal/queuing"

// T_mem (§III-C, Eq 4–10 and Appendix Eq 17–19):
//
//	T_mem = Effective_memory_requests_per_SM × AMAT            (Eq 4)
//	AMAT  = DRAM_lat × miss_ratio + hit_lat + shmem_lat × shmem_ratio  (Eq 5)
//
// DRAM_lat comes from the per-bank G/G/1 queuing model (Eq 6–9) over the
// request distribution determined by the address mapping (§III-C2), with
// row-buffer-aware service times (Eq 8). Prior models instead assume a
// constant off-chip latency; Options.Queuing=false reproduces that.

// dramLatency returns the system-wide average DRAM access latency and its
// queuing component, both in nanoseconds.
//
// The analysis pass timestamps requests with an instruction-count proxy (the
// paper approximates inter-arrival times by the number of instructions
// between requests). That proxy assumes full-rate issue; the real span is
// stretched by the very memory stalls being modeled. predictFrom therefore
// iterates: given the previous iterate's predicted span, all inter-arrival
// statistics are scaled by span/rawSpan — a pure time-dilation that
// preserves every c_a (Eq 10) — and the Kingman delay is re-evaluated.
// spanNS == 0 selects the first iterate: uncontended row-aware service time.
func (m *Model) dramLatency(an *Analysis, spanNS float64) (lat, queue float64) {
	topo := m.Cfg.DRAM
	if !m.Opts.Queuing {
		// Constant off-chip latency, as measured by a pointer-chase
		// microbenchmark on an idle machine (a closed-row access).
		return topo.MissLatencyNS, 0
	}
	if an.RowCounts.Total() == 0 {
		return topo.MissLatencyNS, 0
	}
	service := an.RowCounts.AvgServiceNS(topo)
	if spanNS <= 0 || an.RawSpanNS <= 0 || len(an.BankStreams) == 0 {
		return service, 0
	}
	factor := spanNS / an.RawSpanNS
	lat = queuing.SystemLatency(an.BankStreams, factor, m.Opts.Variant)

	// Second queuing stage: the memory controllers' data buses. The network
	// is composable — the controller's queuing delay simply adds to every
	// request's latency.
	var ctlN, ctlDelay float64
	for _, s := range an.CtlStreams {
		s.TauA *= factor
		s.SigmaA *= factor
		ctlDelay += float64(s.N) * queuing.QueuingDelay(s, m.Opts.Variant)
		ctlN += float64(s.N)
	}
	if ctlN > 0 {
		lat += ctlDelay / ctlN
	}

	if lat < service {
		lat = service
	}
	return lat, lat - service
}

// amat evaluates Eq 5 in cycles per warp-level memory instruction.
// miss_ratio generalizes to DRAM trips per memory instruction (it exceeds 1
// for divergent warps whose transactions all miss — "counting them should
// consider the difference in memory request size").
func (m *Model) amat(an *Analysis, dramNS float64) float64 {
	if an.MemInsts == 0 {
		return 0
	}
	cfg := m.Cfg
	mem := float64(an.MemInsts)
	dramTripsPerInst := float64(an.Events.L2Misses) / mem
	offchipRatio := float64(an.OffchipReqs) / mem
	sharedRatio := float64(an.Events.SharedRequests) / mem
	remoteRatio := float64(an.RemoteReqs) / mem

	dramCycles := dramNS * cfg.CyclesPerNS()
	// Remote-placed arrays (chiplet architectures) add one interposer
	// crossing per off-chip request on top of the normal cache/DRAM path.
	interposerCycles := cfg.Interposer.LatencyNS * cfg.CyclesPerNS()
	return dramCycles*dramTripsPerInst +
		cfg.CacheHitLatency*offchipRatio +
		cfg.SharedLatency*sharedRatio +
		interposerCycles*remoteRatio
}

// mwpCwp evaluates the Hong–Kim style warp-parallelism quantities used by
// Eq 18–19 (and by the Sim-et-al overlap formulation).
func (m *Model) mwpCwp(an *Analysis, amat float64) (mwp, cwp float64) {
	cfg := m.Cfg
	n := an.Events.WarpsPerSM
	if n < 1 {
		n = 1
	}
	departure := an.TransPerOffchip
	if departure < 1 {
		departure = 1
	}
	mwp = amat / departure
	if mwp > cfg.MWPPeakBW {
		mwp = cfg.MWPPeakBW
	}
	if mwp > n {
		mwp = n
	}
	if mwp < 1 {
		mwp = 1
	}

	compPerMem := 1.0
	if an.MemInsts > 0 {
		c := float64(an.IssueSlots-an.MemInsts-an.Replays14) / float64(an.MemInsts)
		if c > compPerMem {
			compPerMem = c
		}
	}
	cwp = (compPerMem + amat) / compPerMem
	if cwp > n {
		cwp = n
	}
	if cwp < 1 {
		cwp = 1
	}
	return mwp, cwp
}

// tmem evaluates Eq 4 with the Eq 17–19 effective-request reduction.
func (m *Model) tmem(an *Analysis, amat float64) float64 {
	if an.MemInsts == 0 {
		return 0
	}
	cfg := m.Cfg
	mwp, cwp := m.mwpCwp(an, amat)

	// Eq 19: MWP_cp = min(max(1, CWP−1), MWP).
	mwpCP := cwp - 1
	if mwpCP < 1 {
		mwpCP = 1
	}
	if mwpCP > mwp {
		mwpCP = mwp
	}
	// Refinement of Eq 18's lower range: even when few warps are resident
	// (CWP capped at a small N), every resident warp whose memory period is
	// longer than its compute gap overlaps the others, so at least
	// min(N, AMAT/departure) warps' periods run concurrently.
	n := an.Events.WarpsPerSM
	departure := an.TransPerOffchip
	if departure < 1 {
		departure = 1
	}
	if raw := amat / departure; raw < n {
		n = raw
	}
	if n > mwpCP {
		mwpCP = n
	}
	// Eq 18: ITMLP = min(MLP × MWP_cp, MWP_peak_bw).
	itmlp := an.MLP * mwpCP
	if itmlp > cfg.MWPPeakBW {
		itmlp = cfg.MWPPeakBW
	}
	if itmlp < 1 {
		itmlp = 1
	}
	// Eq 17, with the straggler factor of uneven block scheduling.
	effReqPerSM := float64(an.MemInsts) / (float64(an.ActiveSMs) * itmlp)
	return effReqPerSM * amat * an.Imbalance
}
