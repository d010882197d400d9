package experiments

import (
	"fmt"
	"strings"

	"gpuhms/internal/addrmode"
	"gpuhms/internal/gpu"
	"gpuhms/internal/trace"
)

// Fig2Report reproduces the Fig 2 addressing-mode study: the per-space
// instruction cost of forming an element address, and the resulting
// executed-instruction difference of the vecAdd kernel's four placements.
type Fig2Report struct {
	// PerAccess[space][dtype] = addressing instructions per element access.
	PerAccess map[gpu.MemSpace]map[trace.DType]int
	// VecAdd rows: placement label → total executed instructions.
	VecAddRows []Fig2Row
}

// Fig2Row is one vecAdd placement's instruction accounting.
type Fig2Row struct {
	Placement      string
	AddrInstrs     int64 // addressing-mode instructions over the kernel
	ExecutedDelta  int64 // vs the all-global placement, from addrmode.TraceDelta
	MeasuredDelta  int64 // vs the all-global placement, from the simulator
	MeasuredInstrs int64
}

// Fig2 analyzes the vecAdd kernel of Fig 2 under its placements.
func (c *Context) Fig2() (*Fig2Report, error) {
	rep := &Fig2Report{PerAccess: make(map[gpu.MemSpace]map[trace.DType]int)}
	for _, sp := range gpu.Spaces {
		rep.PerAccess[sp] = make(map[trace.DType]int)
		for _, dt := range []trace.DType{trace.F32, trace.F64, trace.I32} {
			rep.PerAccess[sp][dt] = addrmode.InstrPerAccess(sp, dt)
		}
	}

	k, err := c.Tests("vecadd")
	if err != nil {
		return nil, err
	}
	t, sample := k.Trace, k.Sample
	st := trace.ComputeStats(t)
	base, err := c.Measure("vecadd", sample, sample)
	if err != nil {
		return nil, err
	}
	for _, pl := range k.Placements {
		m, err := c.Measure("vecadd", sample, pl)
		if err != nil {
			return nil, err
		}
		var addrInstrs int64
		for i := range t.Arrays {
			addrInstrs += int64(addrmode.InstrPerAccess(pl.Of(trace.ArrayID(i)), t.Arrays[i].Type)) *
				st.Accesses(trace.ArrayID(i))
		}
		rep.VecAddRows = append(rep.VecAddRows, Fig2Row{
			Placement:      pl.Format(t),
			AddrInstrs:     addrInstrs,
			ExecutedDelta:  addrmode.TraceDelta(st, t, sample.Spaces, pl.Spaces),
			MeasuredDelta:  m.Events.InstExecuted - base.Events.InstExecuted,
			MeasuredInstrs: m.Events.InstExecuted,
		})
	}
	return rep, nil
}

// Render prints the Fig 2 summary.
func (r *Fig2Report) Render() string {
	var b strings.Builder
	b.WriteString("Fig 2: addressing-mode instructions per element access (SASS analysis)\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s\n", "space", "float", "double", "int")
	for _, sp := range gpu.Spaces {
		fmt.Fprintf(&b, "%-12s %8d %8d %8d\n", sp.LongString(),
			r.PerAccess[sp][trace.F32], r.PerAccess[sp][trace.F64], r.PerAccess[sp][trace.I32])
	}
	b.WriteString("\nvecAdd (v = a + b) executed-instruction accounting per placement:\n")
	fmt.Fprintf(&b, "%-24s %12s %14s %14s %12s\n",
		"placement", "addr instrs", "model Δexec", "measured Δexec", "measured")
	for _, row := range r.VecAddRows {
		fmt.Fprintf(&b, "%-24s %12d %14d %14d %12d\n",
			row.Placement, row.AddrInstrs, row.ExecutedDelta, row.MeasuredDelta, row.MeasuredInstrs)
	}
	return b.String()
}
