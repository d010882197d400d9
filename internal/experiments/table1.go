package experiments

import (
	"fmt"
	"sort"
	"strings"

	"gpuhms/internal/stats"
)

// Table1Kernels are the six benchmarks of the §II-B event-selection study.
var Table1Kernels = []string{"cfd", "convolution", "md", "matrixMul", "spmv", "transpose"}

// Table1Events are the five representative performance events of Table I.
var Table1Events = []string{"issue_slots", "inst_issued", "inst_integer", "ldst_issued", "L2_transactions"}

// Table1Threshold is the cosine-similarity cutoff of §II-B.
const Table1Threshold = 0.94

// Table1Row is one kernel's cosine similarities.
type Table1Row struct {
	Kernel string
	// Sim maps event name → cosine similarity between the event vector and
	// the execution-time vector across the kernel's data placements.
	Sim map[string]float64
	// Placements is the number of data placements in the vectors.
	Placements int
}

// Table1Report is the reproduction of Table I.
type Table1Report struct {
	Rows []Table1Row
	// AllEvents carries the similarity of every counted event, for the
	// event-selection narrative beyond the five representative columns.
	AllEvents map[string][]float64
}

// Table1 runs every placement of the six study kernels through the
// simulator, builds the time vector and one vector per performance event,
// and reports their cosine similarities (§II-B).
func (c *Context) Table1() (*Table1Report, error) {
	rep := &Table1Report{AllEvents: make(map[string][]float64)}
	warm, err := c.Cases(Table1Kernels, true)
	if err != nil {
		return nil, err
	}
	if err := c.Prewarm(warm); err != nil {
		return nil, err
	}
	for _, kernel := range Table1Kernels {
		cases, err := c.Cases([]string{kernel}, true)
		if err != nil {
			return nil, err
		}
		var times []float64
		vectors := make(map[string][]float64)
		for _, cs := range cases {
			m, err := c.Measure(cs.Kernel, cs.Sample, cs.Target)
			if err != nil {
				return nil, err
			}
			times = append(times, m.TimeNS)
			for _, ev := range m.Events.All() {
				vectors[ev.Name] = append(vectors[ev.Name], ev.Value)
			}
		}
		row := Table1Row{Kernel: kernel, Sim: make(map[string]float64), Placements: len(times)}
		for name, vec := range vectors {
			cs, err := stats.CosineSimilarity(times, vec)
			if err != nil {
				return nil, err
			}
			row.Sim[name] = cs
			rep.AllEvents[name] = append(rep.AllEvents[name], cs)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// Render prints the Table I layout: similarities below the threshold print
// as N/A, exactly like the paper.
func (r *Table1Report) Render() string {
	var b strings.Builder
	b.WriteString("Table I: cosine similarity between execution time and performance events\n")
	fmt.Fprintf(&b, "%-14s", "GPU kernel")
	for _, ev := range Table1Events {
		fmt.Fprintf(&b, " %16s", ev)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s", row.Kernel)
		for _, ev := range Table1Events {
			v, ok := row.Sim[ev]
			if !ok || v < Table1Threshold {
				fmt.Fprintf(&b, " %16s", "N/A")
			} else {
				fmt.Fprintf(&b, " %16.3f", v)
			}
		}
		b.WriteByte('\n')
	}

	// Event-selection summary: mean similarity of every event, descending,
	// ties (the constant-cache events on K80) by name.
	type agg struct {
		name string
		mean float64
	}
	var all []agg
	for name, sims := range r.AllEvents {
		all = append(all, agg{name, stats.Mean(sims)})
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].mean > all[j].mean || all[i].mean == all[j].mean && all[i].name < all[j].name
	})
	b.WriteString("\nAll events by mean similarity across kernels:\n")
	for _, a := range all {
		fmt.Fprintf(&b, "  %-28s %6.3f\n", a.name, a.mean)
	}
	return b.String()
}
