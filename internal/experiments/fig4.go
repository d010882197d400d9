package experiments

import (
	"fmt"
	"strings"

	"gpuhms/internal/kernels"
	"gpuhms/internal/sim"
	"gpuhms/internal/stats"
)

// Fig4Kernels are the three kernels of the inter-arrival-time study.
var Fig4Kernels = []string{"spmv", "md", "matrixMul"}

// Fig4Row is one kernel's inter-arrival statistics.
type Fig4Row struct {
	Kernel string
	// Hist is the empirical inter-arrival histogram; MeanNS the sample
	// mean, the parameter of the theoretical exponential overlay.
	Hist   *stats.Histogram
	MeanNS float64
	// KS is the Kolmogorov–Smirnov distance between the empirical CDF and
	// the exponential CDF with the same mean; small = Markov-like.
	KS float64
	// CaMean/CaStd are the per-bank c_a statistics the paper reports
	// ("the average c_a of all memory banks is 1.11, 2.22, and 1.72").
	CaMean, CaStd float64
	Samples       int
}

// Fig4Report reproduces the Fig 4 study: do DRAM inter-arrival times follow
// an exponential distribution?
type Fig4Report struct {
	Rows []Fig4Row
}

// Fig4 collects each kernel's DRAM inter-arrival stream (default
// placements, timing from the detailed simulator — the paper used
// GPGPUSim for the same purpose) and compares it against the exponential
// reference.
func (c *Context) Fig4() (*Fig4Report, error) {
	collector := sim.New(c.Cfg)
	collector.CollectArrivals = true
	rep := &Fig4Report{}
	for _, kernel := range Fig4Kernels {
		t := c.Trace(kernel)
		spec := kernels.MustGet(kernel)
		sample, err := spec.SamplePlacement(t)
		if err != nil {
			return nil, err
		}
		m, err := collector.Run(t, sample, sample)
		if err != nil {
			return nil, err
		}
		mean := stats.Mean(m.InterArrivals)
		// Bin width: an eighth of the mean, 64 bins, covers 8 means.
		width := mean / 8
		if width <= 0 {
			width = 1
		}
		h := stats.NewHistogram(width, 64)
		for _, x := range m.InterArrivals {
			h.Add(x)
		}
		rep.Rows = append(rep.Rows, Fig4Row{
			Kernel:  kernel,
			Hist:    h,
			MeanNS:  mean,
			KS:      h.KSDistanceFromExponential(mean),
			CaMean:  m.BankCaMean,
			CaStd:   m.BankCaStd,
			Samples: len(m.InterArrivals),
		})
	}
	return rep, nil
}

// Render prints the c_a table and the ASCII histograms with the exponential
// overlay.
func (r *Fig4Report) Render() string {
	var b strings.Builder
	b.WriteString("Fig 4: DRAM inter-arrival time distribution vs exponential reference\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %12s %10s %8s\n",
		"kernel", "mean ca", "std ca", "mean gap ns", "KS dist", "samples")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %10.2f %10.2f %12.2f %10.3f %8d\n",
			row.Kernel, row.CaMean, row.CaStd, row.MeanNS, row.KS, row.Samples)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n%s ('#' measured, '.' exponential, '*' both):\n", row.Kernel)
		b.WriteString(row.Hist.Render(row.MeanNS, 48))
	}
	return b.String()
}
