package core

// T_comp (§III-B, Eq 2 and Appendix Eq 13–16):
//
//	T_comp = (#inst × #total_warps / #active_SMs) × Effective_instruction_throughput + W_serial
//
// where #inst is the number of *issued* instructions per warp — the paper's
// key departure from prior models, which use executed instructions. Issued
// instructions are estimated as the target's executed instructions
// (including addressing-mode instructions, which differ per memory space)
// plus the target's replays per Eq 3:
//
//	inst_replay_target = inst_replay_sample − inst_replay_sample_(1-4) + inst_replay_target_(1-4)

// syncCost is the modeled issue-pipeline cost of one barrier, cycles; part
// of O_sync in Eq 16. Serialization overheads are assumed identical across
// placements (§Appendix), so the value only shifts every prediction equally.
const syncCost = 2

// warpILP is the per-warp instruction-level parallelism assumed by Eq 14:
// GPU kernels issue short runs of independent instructions (index
// arithmetic, back-to-back loads) between dependences.
const warpILP = 2.5

// effectiveThroughput is Eq 13–15: the effective instruction throughput
// (cycles per executed instruction per SM) at a resident-warp count. ITILP =
// min(ILP×N, ITILP_max) with ITILP_max = avg_inst_lat /
// (warp_size/SIMD_width). Replayed instructions re-issue already-computed
// work, so they consume one issue slot each but no pipeline latency. The
// result is clamped to ≥ 1 cycle per instruction; the resident-warp count
// does not depend on placement, so neither does the throughput — which is
// what lets PlacementBound treat it as a constant factor.
func (m *Model) effectiveThroughput(warpsPerSM float64) float64 {
	cfg := m.Cfg
	itilpMax := cfg.AvgInstLatency / (float64(cfg.WarpSize) / float64(cfg.SIMDWidth))
	itilp := warpILP * warpsPerSM
	if itilp > itilpMax {
		itilp = itilpMax
	}
	if itilp < 1 {
		itilp = 1
	}
	throughput := cfg.AvgInstLatency / itilp
	if throughput < 1 {
		throughput = 1
	}
	return throughput
}

func (m *Model) tcomp(an, sampleAn *Analysis, prof *SampleProfile) float64 {
	activeSMs := float64(an.ActiveSMs)

	var executed, replays float64
	if m.Opts.InstrCounting {
		// Eq 3: start from the sample's *measured* replays (all ten causes),
		// remove the model's estimate of the sample's placement-dependent
		// replays, add the target's.
		executed = float64(an.Events.InstExecuted)
		replays = float64(prof.Events.TotalReplays()) -
			float64(sampleAn.Events.TotalReplays()) + float64(an.Events.TotalReplays())
		if replays < 0 {
			replays = 0
		}
	} else {
		// Prior-work instruction counting: the sample's executed count is
		// assumed to hold for every placement, and replays are not modeled.
		executed = float64(prof.Events.InstExecuted)
	}

	throughput := m.effectiveThroughput(an.Events.WarpsPerSM)

	// Eq 16: serialization overhead; only the barrier term varies with the
	// kernel, and none of it varies with placement.
	wSerial := float64(an.Syncs) / activeSMs * syncCost

	// An SM is bounded by whichever is larger: its issue bandwidth
	// (every issued slot, replays included, costs one slot) or the
	// dependency stalls its resident warps cannot hide (executed
	// instructions at the effective throughput). Replays re-issue
	// ready operands and thus add no dependency stalls of their own.
	issueBound := executed + replays
	stallBound := executed * throughput
	perSM := issueBound
	if stallBound > perSM {
		perSM = stallBound
	}
	return perSM/activeSMs*an.Imbalance + wSerial
}
