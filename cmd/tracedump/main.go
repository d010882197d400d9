// Command tracedump inspects and exports kernel traces: the placement-
// neutral instruction/memory traces every model in this repository consumes
// (the SASSI-trace analogue).
//
//	tracedump -kernel spmv                  # summary and per-array stats
//	tracedump -kernel spmv -export spmv.json
//	tracedump -import spmv.json             # re-validate and summarize
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"gpuhms/internal/kernels"
	"gpuhms/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracedump: ")

	var (
		kernel   = flag.String("kernel", "", "bundled kernel to dump")
		scale    = flag.Int("scale", 1, "workload scale")
		export   = flag.String("export", "", "write the trace as JSON to this file")
		importFr = flag.String("import", "", "read a JSON trace instead of generating one")
		warps    = flag.Int("warps", 0, "also print the instruction stream of the first N warps")
	)
	flag.Parse()

	var tr *trace.Trace
	switch {
	case *importFr != "":
		f, err := os.Open(*importFr)
		if err != nil {
			log.Fatal(err)
		}
		tr, err = trace.ReadJSON(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	case *kernel != "":
		spec, ok := kernels.Get(*kernel)
		if !ok {
			log.Fatalf("unknown kernel %q", *kernel)
		}
		tr = spec.Trace(*scale)
	default:
		log.Fatal("need -kernel or -import")
	}

	st := trace.ComputeStats(tr)
	fmt.Printf("kernel %s: %d blocks × %d threads (%d warps)\n",
		tr.Kernel, tr.Launch.Blocks, tr.Launch.ThreadsPerBlock, tr.Launch.TotalWarps())
	fmt.Printf("executed warp instructions: %d (%d memory)\n\n", st.Executed(), st.MemInsts())

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "ARRAY\tTYPE\tELEMENTS\tBYTES\tSHAPE\tRO\tLOADS\tSTORES\t")
	for i, a := range tr.Arrays {
		shape := "1D"
		if a.Is2D() {
			shape = fmt.Sprintf("%dx%d", a.Height(), a.Width)
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%s\t%v\t%d\t%d\t\n",
			a.Name, a.Type, a.Len, a.Bytes(), shape, a.ReadOnly,
			st.LoadsByArray[trace.ArrayID(i)], st.StoresByArr[trace.ArrayID(i)])
	}
	w.Flush()

	fmt.Println("\ninstruction mix:")
	for op := trace.OpInt; op <= trace.OpBranch; op++ {
		if n := st.PerOp[op]; n > 0 {
			fmt.Printf("  %-6s %10d (%5.1f%%)\n", op, n, 100*float64(n)/float64(st.Executed()))
		}
	}

	for wi := 0; wi < *warps && wi < len(tr.Warps); wi++ {
		wt := &tr.Warps[wi]
		fmt.Printf("\nwarp %d (block %d, warp %d): %d instructions\n",
			wi, wt.Block, wt.Warp, len(wt.Inst))
		for ii := range wt.Inst {
			in := &wt.Inst[ii]
			if in.Op.IsMem() {
				fmt.Printf("  %-4s %-12s lanes=%d first=%d\n",
					in.Op, tr.Arrays[in.Array].Name, tr.ActiveLanes(in), firstActive(tr, in))
			} else {
				fmt.Printf("  %-4s x%d\n", in.Op, in.Count)
			}
		}
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteJSON(f, tr); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nexported to %s\n", *export)
	}
}

// firstActive returns the element index of a memory instruction's first
// active lane, or -1 when no lane is active.
func firstActive(tr *trace.Trace, in *trace.Inst) int64 {
	if tr.ActiveLanes(in) == 0 {
		return -1
	}
	return in.First
}
