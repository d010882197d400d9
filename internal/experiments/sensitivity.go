package experiments

import (
	"fmt"
	"strings"

	"gpuhms/internal/baseline"
	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/placement"
)

// SensitivityRow records, for one (architecture, kernel) pair, whether the
// model's recommended placement matches the simulator's true best among the
// kernel's Table IV placements.
type SensitivityRow struct {
	Arch           string
	Kernel         string
	ModelBest      string
	MeasuredBest   string
	Agree          bool
	ModelBestNS    float64 // measured time of the model's pick
	MeasuredBestNS float64 // measured time of the true best
	// RegretPct is how much slower the model's pick runs than the true
	// best, in percent (0 when they agree).
	RegretPct float64
}

// SensitivityReport is the HMS design-space exploration: the paper claims
// the models "provide foundation to explore other HMS systems"; this
// experiment re-trains and re-evaluates the advisor on perturbed memory
// systems and checks that its recommendations still track the (simulated)
// hardware.
type SensitivityReport struct {
	Rows []SensitivityRow
}

// sensitivityConfigs returns the architecture variants swept: registry
// profiles plus perturbed copies of the paper's platform (Lookup returns a
// fresh Config per call, so the mutations never alias).
func sensitivityConfigs() []*gpu.Config {
	base := gpu.MustLookup("k80")

	smallL2 := gpu.MustLookup("k80")
	smallL2.Name = "K80 with 256KB L2"
	smallL2.L2.SizeBytes = 256 << 10

	slowDRAM := gpu.MustLookup("k80")
	slowDRAM.Name = "K80 with 2x DRAM latency"
	slowDRAM.DRAM.HitLatencyNS *= 2
	slowDRAM.DRAM.MissLatencyNS *= 2
	slowDRAM.DRAM.ConflictLatencyNS *= 2

	narrowBus := gpu.MustLookup("k80")
	narrowBus.Name = "K80 with 4x bus occupancy"
	narrowBus.DRAM.CtlBusyNS *= 4
	narrowBus.DRAM.BusyHitNS *= 4
	narrowBus.DRAM.BusyMissNS *= 4
	narrowBus.DRAM.BusyConflictNS *= 4

	return []*gpu.Config{base, smallL2, slowDRAM, narrowBus, gpu.MustLookup("fermi")}
}

// SensitivityKernels are the kernels evaluated per architecture.
var SensitivityKernels = []string{"neuralnet", "spmv", "convolution"}

// Sensitivity sweeps the architecture variants.
func (c *Context) Sensitivity() (*SensitivityReport, error) {
	rep := &SensitivityReport{}
	for _, cfg := range sensitivityConfigs() {
		// Fresh context per architecture: measurements and training are
		// architecture-specific.
		ctx := NewContext(cfg, c.Scale)
		model, err := ctx.Model(baseline.Ours())
		if err != nil {
			return nil, fmt.Errorf("sensitivity %s: %w", cfg.Name, err)
		}
		for _, kernel := range SensitivityKernels {
			row, err := sensitivityCase(ctx, model, cfg, kernel)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, *row)
		}
	}
	return rep, nil
}

func sensitivityCase(ctx *Context, model *core.Model, cfg *gpu.Config, kernel string) (*SensitivityRow, error) {
	k, err := ctx.Tests(kernel)
	if err != nil {
		return nil, err
	}
	t, sample, placements := k.Trace, k.Sample, k.Placements

	prof, err := ctx.Measure(kernel, sample, sample)
	if err != nil {
		return nil, err
	}
	pr, err := core.NewPredictor(model, t, sample,
		core.SampleProfile{TimeNS: prof.TimeNS, Events: prof.Events})
	if err != nil {
		return nil, err
	}

	row := &SensitivityRow{Arch: cfg.Name, Kernel: kernel}
	var bestPredNS, bestMeasNS float64
	var modelPick *placement.Placement
	measured := make(map[string]float64, len(placements))
	for _, pl := range placements {
		p, err := pr.Predict(pl)
		if err != nil {
			return nil, err
		}
		m, err := ctx.Measure(kernel, sample, pl)
		if err != nil {
			return nil, err
		}
		key := pl.Format(t)
		measured[key] = m.TimeNS
		if modelPick == nil || p.TimeNS < bestPredNS {
			modelPick, bestPredNS = pl, p.TimeNS
			row.ModelBest = key
		}
		if row.MeasuredBest == "" || m.TimeNS < bestMeasNS {
			bestMeasNS = m.TimeNS
			row.MeasuredBest = key
		}
	}
	row.MeasuredBestNS = bestMeasNS
	row.ModelBestNS = measured[row.ModelBest]
	row.Agree = row.ModelBest == row.MeasuredBest
	if bestMeasNS > 0 {
		row.RegretPct = 100 * (row.ModelBestNS - bestMeasNS) / bestMeasNS
	}
	return row, nil
}

// AgreementRate returns the fraction of (arch, kernel) cases where the
// model picked the true best placement.
func (r *SensitivityReport) AgreementRate() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	n := 0
	for _, row := range r.Rows {
		if row.Agree {
			n++
		}
	}
	return float64(n) / float64(len(r.Rows))
}

// MaxRegret returns the worst regret across all cases.
func (r *SensitivityReport) MaxRegret() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		if row.RegretPct > worst {
			worst = row.RegretPct
		}
	}
	return worst
}

// MeanRegret returns the average regret across all cases — the expected cost
// of trusting the model's pick on a perturbed architecture.
func (r *SensitivityReport) MeanRegret() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, row := range r.Rows {
		sum += row.RegretPct
	}
	return sum / float64(len(r.Rows))
}

// Render prints the sweep.
func (r *SensitivityReport) Render() string {
	var b strings.Builder
	b.WriteString("HMS design-space sensitivity: does the model's placement pick track the hardware?\n")
	fmt.Fprintf(&b, "%-28s %-12s %-34s %-34s %6s %8s\n",
		"architecture", "kernel", "model pick", "measured best", "agree", "regret")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s %-12s %-34s %-34s %6v %7.1f%%\n",
			row.Arch, row.Kernel, row.ModelBest, row.MeasuredBest, row.Agree, row.RegretPct)
	}
	fmt.Fprintf(&b, "agreement %.0f%%, worst regret %.1f%%\n",
		100*r.AgreementRate(), r.MaxRegret())
	return b.String()
}
