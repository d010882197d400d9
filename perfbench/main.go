// Command perfbench is the placement advisor's benchmark: it builds the
// advisory service in-process over all four registered architectures, drives
// its HTTP handler with a closed loop of two clients, checks every reply,
// and prints the end-to-end metrics — or, with --trace 1, replays the same
// requests layer by layer and prints per-layer metrics. See README.md.
//
//	bash perfbench/run.sh --workload cold-profile --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when every
// output check and workload self-check passed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setupsPerRun is how many times a run sets up; setup_s is the median.
const setupsPerRun = 3

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	seed := fs.Int64("seed", 1, "seed the workload's requests are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 replays the window layer by layer and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{
		workload:  *workload,
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		trace:     *traceFlag == 1,
		setups:    setupsPerRun,
		spansPath: filepath.Join(".bench_build", "perfbench", "spans-"+*workload+".jsonl"),
	}
	prov, err := provenance(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, cfg, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// provenance is the machine block: CPUs, Go, commit, seed, and the request
// count of one pass (or one cycle) of every workload under this seed.
func provenance(cfg runConfig) ([]byte, error) {
	counts := map[string]int{}
	for _, w := range workloadNames {
		p, err := newPlan(w, cfg.seed, cfg.tiny)
		if err != nil {
			return nil, err
		}
		counts[w] = len(p.list)
	}
	if _, ok := counts[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return json.Marshal(map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": commit,
		"seed":       cfg.seed,
		"workload":   cfg.workload,
		"window_s":   cfg.window.Seconds(),
		"trace":      cfg.trace,
		"clients":    clients,
		"requests":   counts,
	})
}

// jsonMetrics are the metrics of the last output line: the end-to-end ones
// untraced, the per-layer ones traced. failed_frac rides in the failed and
// attempted fields instead, because a metric that is 0 on a correct run has
// no share to compare.
func jsonMetrics(cfg runConfig, res *result) map[string]any {
	list := res.perLayer
	if !cfg.trace {
		list = res.endToEnd
	}
	out := map[string]any{}
	for _, m := range list {
		if m.name == "failed_frac" {
			continue
		}
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// report prints the shares, every metric with its unit and sample count, any
// failed check, and the JSON result line last.
func report(w io.Writer, cfg runConfig, res *result) error {
	section := func(title string, ms []metric) {
		fmt.Fprintf(w, "%s\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		}
	}
	section("workload shares ("+cfg.workload+")", res.shares)
	section("end-to-end (untraced window, wall time less steal)", res.endToEnd)
	section("wall time with steal (host-dependent, not compared)", res.wall)
	if cfg.trace {
		section("per-layer (traced replay)", res.perLayer)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	if res.failed > len(res.failures) {
		fmt.Fprintf(w, "FAILED ... %d more\n", res.failed-len(res.failures))
	}
	for _, s := range res.selfCheck {
		fmt.Fprintf(w, "SELF-CHECK %s\n", s)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct(),
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   jsonMetrics(cfg, res),
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
