package core

import (
	"fmt"
	"strings"
)

// Explain renders the Eq 1 decomposition of a prediction as a human-readable
// report — what the placement advisor shows a programmer asking *why* a
// placement is predicted fast or slow.
func (p *Prediction) Explain(nsPerCycle float64) string {
	var b strings.Builder
	total := p.Cycles
	pct := func(x float64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * x / total
	}
	fmt.Fprintf(&b, "predicted time: %.0f ns (%.0f cycles", p.TimeNS, p.Cycles)
	if p.StagingNS > 0 {
		fmt.Fprintf(&b, " + %.0f ns shared staging", p.StagingNS)
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  T_comp    %10.0f cycles (%5.1f%% of T)\n", p.TComp, pct(p.TComp))
	fmt.Fprintf(&b, "  T_mem     %10.0f cycles (%5.1f%%)\n", p.TMem, pct(p.TMem))
	fmt.Fprintf(&b, "  T_overlap %10.0f cycles hidden (%.0f%% of T_mem)\n",
		p.TOverlap, safePct(p.TOverlap, p.TMem))

	an := p.Analysis
	if an != nil {
		fmt.Fprintf(&b, "instructions: %d executed", an.Events.InstExecuted)
		if replays := an.Events.TotalReplays(); replays > 0 {
			fmt.Fprintf(&b, " + %d replays", replays)
			var parts []string
			for r, n := range map[string]int64{
				"global divergence":   an.Events.ReplayGlobalDiv,
				"constant misses":     an.Events.ReplayConstMiss,
				"constant divergence": an.Events.ReplayConstDiv,
				"bank conflicts":      an.Events.ReplayShared,
			} {
				if n > 0 {
					parts = append(parts, fmt.Sprintf("%s %d", r, n))
				}
			}
			if len(parts) > 0 {
				fmt.Fprintf(&b, " (%s)", strings.Join(sortStrings(parts), ", "))
			}
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "memory: %d warp requests; AMAT %.0f cycles; DRAM %.0f ns (%.0f ns queuing)\n",
			an.MemInsts, p.AMAT, p.DRAMLatNS, p.QueueDelayNS)
		rc := an.RowCounts
		if rc.Total() > 0 {
			h, m, c := rc.Ratios()
			fmt.Fprintf(&b, "row buffers: %.0f%% hit / %.0f%% miss / %.0f%% conflict over %d requests\n",
				100*h, 100*m, 100*c, rc.Total())
		}
	}
	return b.String()
}

func safePct(x, of float64) float64 {
	if of == 0 {
		return 0
	}
	return 100 * x / of
}

func sortStrings(xs []string) []string {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs
}
