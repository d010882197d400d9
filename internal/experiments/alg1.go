package experiments

import (
	"fmt"
	"strings"

	"gpuhms/internal/dram"
	"gpuhms/internal/microbench"
)

// Alg1Report is the address-mapping detection outcome together with the
// ground-truth mapping it should recover.
type Alg1Report struct {
	Detection *microbench.Result
	Truth     string
	// Correct reports whether every probed bit was classified according to
	// the configured mapping.
	Correct bool
	// Mismatches lists mis-classified bits, if any.
	Mismatches []uint
}

// Alg1 runs Algorithm 1 against the modeled DRAM and cross-checks the
// detected row/column bits against the configured mapping. The paper's K80
// measurement (hit 352 ns, miss 742 ns, conflict 1008 ns) is the calibration
// source of the DRAM latencies, so the latencies must round-trip exactly.
func (c *Context) Alg1() (*Alg1Report, error) {
	mapping := dram.DefaultMapping(c.Cfg.DRAM)
	hi := mapping.RowLo + mapping.RowBits
	det := microbench.Detect(c.Cfg.DRAM, mapping, 0, hi)

	rep := &Alg1Report{Detection: det, Truth: mapping.String(), Correct: true}
	for bit := uint(0); bit < hi; bit++ {
		var want microbench.BitClass
		switch {
		case mapping.IsRowBit(bit):
			want = microbench.RowBit
		case mapping.IsBankBit(bit):
			want = microbench.BankBit
		default:
			// Column bits and byte-offset bits both keep the open row.
			want = microbench.ColumnBit
		}
		if det.Classes[bit] != want {
			rep.Correct = false
			rep.Mismatches = append(rep.Mismatches, bit)
		}
	}
	return rep, nil
}

// Render prints the detection like §III-C2 reports it.
func (r *Alg1Report) Render() string {
	var b strings.Builder
	b.WriteString("Algorithm 1: address-mapping detection via one-bit-apart probe pairs\n")
	b.WriteString(r.Detection.Format())
	fmt.Fprintf(&b, "configured mapping:          %s\n", r.Truth)
	if r.Correct {
		b.WriteString("detection matches the configured mapping for every probed bit\n")
	} else {
		fmt.Fprintf(&b, "MISMATCHED bits: %v\n", r.Mismatches)
	}
	return b.String()
}
