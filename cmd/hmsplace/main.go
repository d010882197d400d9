// Command hmsplace is the data placement advisor: given a kernel and its
// sample data placement, it profiles the sample once on the modeled GPU,
// then predicts the performance of candidate placements and ranks them —
// the workflow of the paper's §I ("our models can work as a tool to help
// programmers for GPU performance optimization").
//
//	hmsplace -list
//	hmsplace -kernel matrixMul
//	hmsplace -kernel spmv -full           # whole m^n legal space
//	hmsplace -kernel md -measure          # also simulate every candidate
//	hmsplace -kernel fft -sample "smem:S" -target "smem:G"
//	hmsplace -kernel spmv -full -budget 50 -top 5 -timeout 30s
//	hmsplace -kernel spmv -full -parallel 8       # 8 ranking workers, same output
//	hmsplace -kernel spmv -full -strategy beam-4  # bound-pruned beam search
//	hmsplace -kernel matrixMul -full -trace-out run.json -metrics-out metrics.prom -progress
//	hmsplace -kernel matrixMul -full -json       # the service's RankResponse JSON
//	hmsplace -fleet mix:shared-squeeze            # capacity-constrained fleet solve
//	hmsplace -fleet tenants.txt -solver beam-4 -objective weighted -json
//
// -fleet switches to fleet mode (docs/FLEET.md): instead of ranking one
// kernel on an empty machine, it solves the capacity-constrained placement
// of several tenant kernels competing for the architecture's per-space byte
// capacities. The argument is either mix:NAME (a bundled scenario; see
// docs/FLEET.md for the list) or a tenant-spec file with one directive per
// line:
//
//	# comments and blank lines are ignored
//	tenant <kernel> [name=N] [scale=K] [weight=W] [sample=SPEC]
//	budget <space>=<bytes>        # shared/global/constant/texture1D/texture2D; -1 = unbounded
//
// -solver picks the assignment search (greedy, the default, or beam-W) and
// -objective the aggregation (minmax, the default, or weighted); -budget,
// -parallel, -timeout, and the observability flags apply as in ranking mode.
// With -json the result is the advisory service's FleetRankResponse — the
// exact wire shape of `POST /v1/fleet/rank` on hmsserved. Unknown kernel,
// tenant-kernel, or mix names exit with code 4 (distinct from usage errors)
// so scripts can tell a typo from a broken invocation.
//
// With -json the ranking is emitted as the advisory service's RankResponse
// (the exact wire shape of `POST /v1/rank` on hmsserved — see
// docs/SERVICE.md), so CLI and server outputs are interchangeable;
// -measure additionally fills each row's measured_ns. -json applies to the
// ranking modes (default moves, -full, -target), not -explain.
//
// -strategy selects the -full search strategy (docs/SEARCH.md): exhaustive
// (the default) enumerates the whole m^n legal space; greedy and beam-W
// evaluate a small subset chosen by the model. Sub-exhaustive rankings list
// only the candidates the strategy evaluated, and -json attaches their
// coverage.
//
// Searches are bounded: -timeout aborts profiling and search after a wall
// clock limit, -budget caps model evaluations, -top keeps only the K best
// rows. A search stopped by budget (or, outside -full, by timeout) still
// prints the best placements found so far, under a "partial search" banner,
// and exits with code 3 so scripts can tell a partial ranking from a
// complete one. -full fans the ranking out over -parallel workers (default
// GOMAXPROCS) with output identical to the sequential search; -measure
// simulates only the rows that end up displayed. Every mode — default
// moves, -target, -full under any strategy — feeds one shared rendering
// path, so -top, -measure, and -json behave identically across them.
//
// Observability (docs/OBSERVABILITY.md): -trace-out writes the session's
// span timeline as Chrome trace_event JSON, loadable in chrome://tracing or
// ui.perfetto.dev (a .csv suffix selects CSV instead); -metrics-out writes
// the metrics registry as Prometheus text (a .json suffix selects JSON);
// -progress streams live search progress to stderr. Artifacts are written
// on every exit path that produced results, including partial searches
// (exit code 3).
//
// Profiling (docs/PERFORMANCE.md): -cpuprofile captures the whole run —
// training, sample profiling, and search — as a pprof CPU profile, and
// -memprofile writes a heap profile at exit (after a forced GC, so it shows
// live retention rather than transient garbage). Both are written on every
// exit path that produced results, mirroring the observability artifacts:
//
//	hmsplace -kernel spmv -full -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	go tool pprof cpu.pb.gz
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"gpuhms/internal/advisor"
	"gpuhms/internal/baseline"
	"gpuhms/internal/core"
	"gpuhms/internal/experiments"
	"gpuhms/internal/fleet"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/kernels"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
	"gpuhms/internal/service"
)

// exitPartial is the exit code of a search stopped by -budget or -timeout:
// results were printed, but they cover only part of the candidate space.
const exitPartial = 3

// exitUnknownName is the exit code for an unknown kernel, tenant kernel, or
// fleet mix name: the invocation was well-formed, the name just is not in the
// registry — scripts can tell a typo (4) from a usage error (1).
const exitUnknownName = 4

func main() {
	log.SetFlags(0)
	log.SetPrefix("hmsplace: ")

	var (
		list     = flag.Bool("list", false, "list available kernels and exit")
		kernel   = flag.String("kernel", "", "kernel to optimize (see -list)")
		sample   = flag.String("sample", "", "sample placement override, e.g. \"a:G,b:T\" (default: the kernel's)")
		target   = flag.String("target", "", "predict only this placement instead of ranking")
		full     = flag.Bool("full", false, "rank the full legal placement space instead of single-array moves")
		strategy = flag.String("strategy", "", "search strategy for -full: exhaustive (default), greedy, or beam-W (docs/SEARCH.md)")
		explain  = flag.Bool("explain", false, "print the Eq 1 breakdown of the top-ranked placement")
		measure  = flag.Bool("measure", false, "also run the simulator on every candidate for comparison")
		scale    = flag.Int("scale", 1, "workload scale factor")
		arch     = flag.String("arch", "k80", "architecture: a registry name or alias (k80, fermi, hbm, chiplet, ...)")
		saveTo   = flag.String("save-model", "", "write the trained model JSON to this file")
		loadFr   = flag.String("load-model", "", "load a trained model JSON instead of training")
		timeout  = flag.Duration("timeout", 0, "abort profiling and search after this long, e.g. 30s (0 = no limit)")
		budget   = flag.Int("budget", 0, "stop after this many model evaluations (0 = unlimited)")
		top      = flag.Int("top", 0, "print only the K best candidates (0 = all)")
		parallel = flag.Int("parallel", 0, "ranking workers for -full (0 = GOMAXPROCS, 1 = sequential); output is identical for every value")
		jsonOut  = flag.Bool("json", false, "emit the ranking as the advisory service's JSON RankResponse (docs/SERVICE.md) instead of a table")

		fleetSpec = flag.String("fleet", "", "solve a capacity-constrained fleet: a tenant-spec file, or mix:NAME for a bundled mix (docs/FLEET.md)")
		solver    = flag.String("solver", "", "fleet assignment solver: greedy (default) or beam-W")
		objective = flag.String("objective", "", "fleet objective: minmax (default) or weighted")

		traceOut   = flag.String("trace-out", "", "write the span timeline here: Chrome trace_event JSON (Perfetto-loadable), or CSV with a .csv suffix")
		metricsOut = flag.String("metrics-out", "", "write collected metrics here: Prometheus text, or JSON with a .json suffix")
		progress   = flag.Bool("progress", false, "stream live search progress to stderr")

		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file (docs/PERFORMANCE.md)")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	// Profiles cover everything after flag parsing — training, the sample
	// simulation, and the search. stopProfiles is idempotent and runs on
	// every exit path that produces results (emitArtifacts calls it, and the
	// deferred call covers plain returns), so a partial search still leaves
	// usable profiles behind.
	var cpuFile *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		cpuFile = f
	}
	profilesDone := false
	stopProfiles := func() {
		if profilesDone {
			return
		}
		profilesDone = true
		if cpuFile != nil {
			// StopCPUProfile flushes but does not close the file.
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				log.Printf("closing %s: %v", *cpuprofile, err)
			}
			fmt.Fprintf(os.Stderr, "hmsplace: cpu profile written to %s\n", *cpuprofile)
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Print(err)
				return
			}
			runtime.GC() // show live retention, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("writing %s: %v", *memprofile, err)
			}
			if err := f.Close(); err != nil {
				log.Print(err)
			}
			fmt.Fprintf(os.Stderr, "hmsplace: heap profile written to %s\n", *memprofile)
		}
	}
	defer stopProfiles()
	if *jsonOut && *explain {
		log.Fatal("-json supports the ranking modes only (not -explain)")
	}
	strat, err := advisor.ParseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	if *strategy != "" && !*full {
		log.Fatal("-strategy applies to -full searches only")
	}
	if *fleetSpec != "" {
		switch {
		case *kernel != "" || *target != "" || *full || *strategy != "":
			log.Fatal("-fleet is a mode of its own: drop -kernel/-target/-full/-strategy")
		case *measure || *explain:
			log.Fatal("-measure and -explain apply to single-kernel rankings only")
		}
	} else if *solver != "" || *objective != "" {
		log.Fatal("-solver and -objective apply to -fleet solves only")
	}

	// The collector gathers the whole session (profiling run, predictions,
	// search) when any observability output is requested; emitArtifacts
	// flushes it on every exit path that produced results.
	var col *obs.Collector
	if *traceOut != "" || *metricsOut != "" || *progress {
		col = obs.NewCollector()
	}
	if *progress {
		last := time.Time{}
		col.OnProgress = func(p obs.Progress) {
			if !p.Done && time.Since(last) < 250*time.Millisecond {
				return
			}
			last = time.Now()
			switch {
			case p.Total > 0:
				fmt.Fprintf(os.Stderr, "hmsplace: progress %d/%d evaluated, best %.0f ns (%s)\n",
					p.Evaluated, p.Total, p.BestNS, p.Best)
			default:
				fmt.Fprintf(os.Stderr, "hmsplace: progress %d evaluated, best %.0f ns (%s)\n",
					p.Evaluated, p.BestNS, p.Best)
			}
		}
	}
	emitArtifacts := func() {
		stopProfiles()
		if col == nil {
			return
		}
		writeArtifact := func(what, path string, render func(io.Writer) error) {
			f, err := os.Create(path)
			if err != nil {
				log.Print(err)
				return
			}
			renderErr := render(f)
			closeErr := f.Close()
			switch {
			case renderErr != nil:
				log.Printf("writing %s: %v", path, renderErr)
			case closeErr != nil:
				log.Print(closeErr)
			default:
				fmt.Fprintf(os.Stderr, "hmsplace: %s written to %s\n", what, path)
			}
		}
		if *traceOut != "" {
			if strings.HasSuffix(*traceOut, ".csv") {
				writeArtifact("trace", *traceOut, col.WriteCSV)
			} else {
				writeArtifact("trace", *traceOut, col.WriteChromeTrace)
			}
		}
		if *metricsOut != "" {
			if strings.HasSuffix(*metricsOut, ".json") {
				writeArtifact("metrics", *metricsOut, col.WriteMetricsJSON)
			} else {
				writeArtifact("metrics", *metricsOut, col.WriteMetricsText)
			}
		}
	}
	// A typed-nil *Collector must not reach Recorder interfaces; normalize
	// to the no-op recorder explicitly.
	rec := obs.Nop()
	if col != nil {
		rec = col
	}

	runCtx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *timeout)
		defer cancel()
	}

	// Architectures resolve through the registry: any registered name or
	// alias works, and the profile arrives pre-validated.
	archName, err := gpu.Canonical(*arch)
	if err != nil {
		log.Fatalf("unknown -arch %q (want one of %s)", *arch, strings.Join(gpu.Names(), ", "))
	}
	cfg, err := gpu.Lookup(archName)
	if err != nil {
		log.Fatal(err)
	}
	if *list {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "KERNEL\tSUITE\tGPU KERNEL\tSAMPLE\tDESCRIPTION")
		for _, name := range kernels.Names() {
			s := kernels.MustGet(name)
			sm := s.Sample
			if sm == "" {
				sm = "(all global)"
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", name, s.Suite, s.KernelName, sm, s.Description)
		}
		w.Flush()
		return
	}
	if *fleetSpec != "" {
		runFleet(runCtx, cfg, archName, *fleetSpec, *solver, *objective,
			*budget, *parallel, *jsonOut, rec, emitArtifacts)
		return
	}
	if *kernel == "" {
		log.Fatal("missing -kernel (use -list to see choices)")
	}
	spec, ok := kernels.Get(*kernel)
	if !ok {
		fmt.Fprintf(os.Stderr, "hmsplace: unknown kernel %q (use -list)\n", *kernel)
		os.Exit(exitUnknownName)
	}

	ctx := experiments.NewContext(cfg, *scale)
	ctx.Sim.Recorder = rec
	tr := ctx.Trace(*kernel)

	samplePl, err := spec.SamplePlacement(tr)
	if err != nil {
		log.Fatal(err)
	}
	if *sample != "" {
		if samplePl, err = placement.Parse(tr, *sample); err != nil {
			log.Fatal(err)
		}
	}
	if err := placement.Check(tr, samplePl, cfg); err != nil {
		log.Fatalf("sample placement: %v", err)
	}

	// Obtain the full model: load a previously trained one, or train the
	// overlap coefficients on the built-in training placements.
	var model *core.Model
	if *loadFr != "" {
		f, err := os.Open(*loadFr)
		if err != nil {
			log.Fatal(err)
		}
		opts, err := core.LoadOptions(f, cfg.Name)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		model = core.NewModel(cfg, opts)
	} else {
		var err error
		model, err = ctx.Model(baseline.Ours())
		if err != nil {
			log.Fatal(err)
		}
	}
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			log.Fatal(err)
		}
		if err := model.Save(f, cfg.Name); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained model saved to %s\n", *saveTo)
	}

	prof, err := ctx.Sim.RunContext(runCtx, tr, samplePl, samplePl)
	if err != nil {
		log.Fatalf("profiling sample placement: %v", err)
	}
	pred, err := core.NewPredictor(model, tr, samplePl,
		core.SampleProfile{TimeNS: prof.TimeNS, Events: prof.Events})
	if err != nil {
		log.Fatal(err)
	}
	pred.SetRecorder(rec)
	if !*jsonOut {
		fmt.Println(archHeader(archName, cfg))
		fmt.Printf("kernel %s (%s), sample placement %s: profiled %.0f ns\n\n",
			*kernel, spec.KernelName, samplePl.Format(tr), prof.TimeNS)
	}

	type row struct {
		pl        *placement.Placement
		predicted float64
		measured  float64
	}
	var rows []row
	var res *advisor.RankResult // set by -full: carries strategy + coverage
	evals := 0
	bestNS, bestPl := 0.0, ""
	var stopReason error
	// predictOne appends one candidate's prediction, honoring the wall-clock
	// and evaluation budgets; it reports whether the search may continue.
	predictOne := func(pl *placement.Placement) bool {
		if err := runCtx.Err(); err != nil {
			stopReason = err
			return false
		}
		if *budget > 0 && evals >= *budget {
			stopReason = hmserr.Wrap(hmserr.ErrBudgetExceeded, "%d model evaluations", *budget)
			return false
		}
		evals++
		start := rec.Now()
		p, err := pred.Predict(pl)
		if err != nil {
			log.Fatalf("predict %s: %v", pl.Format(tr), err)
		}
		if rec.Enabled() {
			rec.Add("advisor_evals_total", 1)
			rec.Span("advisor", "eval "+pl.Format(tr), start, rec.Now()-start)
			if bestPl == "" || p.TimeNS < bestNS {
				bestNS, bestPl = p.TimeNS, pl.Format(tr)
				rec.Gauge("advisor_best_ns", bestNS)
			}
			rec.ReportProgress(obs.Progress{Evaluated: evals, BestNS: bestNS, Best: bestPl})
		}
		rows = append(rows, row{pl: pl, predicted: p.TimeNS})
		return true
	}
	switch {
	case *target != "":
		pl, err := placement.Parse(tr, *target)
		if err != nil {
			log.Fatal(err)
		}
		predictOne(pl)
	case *full:
		// Rank through the search engine: the chosen strategy decides which
		// candidates are predicted, workers stream its work in deterministic
		// shards, and the merged ranking is identical for every worker count.
		// The engine emits the eval spans, best-so-far gauges, and the
		// closing progress report itself.
		workers := *parallel
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		result, rerr := advisor.Search(runCtx, cfg, tr, pred, advisor.RankOptions{
			TopK: *top, MaxCandidates: *budget, Parallelism: workers, Strategy: strat,
		}, rec)
		if rerr != nil && !errors.Is(rerr, hmserr.ErrBudgetExceeded) {
			log.Fatal(rerr)
		}
		if rerr != nil {
			stopReason = rerr
		}
		res = result
		evals = res.Evaluated
		for _, r := range res.Ranked {
			rows = append(rows, row{pl: r.Placement, predicted: r.PredictedNS})
		}
	default:
		for _, pl := range append([]*placement.Placement{samplePl},
			placement.Moves(tr, samplePl, cfg)...) {
			if !predictOne(pl) {
				break
			}
		}
	}
	// The candidate-space size closes out the search progress and, with
	// -json, a partial ranking's coverage record.
	total := evals
	switch {
	case *full:
		total = res.Total
	case *target == "":
		total = 1 + len(placement.Moves(tr, samplePl, cfg))
	}
	if rec.Enabled() && !*full {
		// Close out the search progress: report coverage of the candidate
		// space so partial searches can be judged from the metrics alone.
		// (-full's closeout is emitted by the ranking engine itself.)
		rec.Gauge("advisor_rank_evaluated", float64(evals))
		rec.Gauge("advisor_rank_total", float64(total))
		rec.ReportProgress(obs.Progress{
			Evaluated: evals, Total: total, BestNS: bestNS, Best: bestPl, Done: true,
		})
	}
	if len(rows) == 0 {
		if stopReason != nil {
			log.Fatalf("no candidate evaluated before the search stopped: %v", stopReason)
		}
		log.Fatal("no legal candidate placements")
	}
	// One shared rendering path for every mode: rows are sorted fastest-first
	// (stably, preserving each producer's deterministic tie order — the
	// engine's (predicted, index) order for -full, generation order for
	// moves) and truncated to -top here, so -top/-measure/-json behave
	// identically whether the rows came from moves, -target, or a -full
	// strategy.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].predicted < rows[j].predicted })
	if *top > 0 && len(rows) > *top {
		rows = rows[:*top]
	}
	if *measure {
		// Measure only the displayed rows — a -top 5 ranking costs 5
		// simulator runs, not one per enumerated candidate.
		for i := range rows {
			m, err := ctx.Measure(*kernel, samplePl, rows[i].pl)
			if err != nil {
				log.Fatal(err)
			}
			rows[i].measured = m.TimeNS
		}
	}

	if *jsonOut {
		// Emit the exact wire shape of the advisory service's /v1/rank
		// (docs/SERVICE.md), so CLI and server outputs are interchangeable;
		// -measure additionally fills measured_ns, which the server never
		// does.
		ranked := make([]advisor.Ranked, len(rows))
		for i, r := range rows {
			ranked[i] = advisor.Ranked{Placement: r.pl, PredictedNS: r.predicted}
		}
		out := service.BuildRanked(tr, samplePl, ranked)
		if *measure {
			for i := range out {
				out[i].MeasuredNS = rows[i].measured
			}
		}
		resp := &service.RankResponse{
			Arch:   archName,
			Kernel: *kernel,
			Scale:  *scale,
			Sample: samplePl.Format(tr),
			Ranked: out,
		}
		if stopReason != nil {
			resp.Partial = true
		}
		// Coverage is attached whenever the ranking does not cover the whole
		// legal space: partial (budget-stopped) searches and sub-exhaustive
		// strategies — mirroring the service's contract.
		if stopReason != nil || (res != nil && res.Strategy != "exhaustive") {
			resp.Coverage = &service.Coverage{Evaluated: evals, Total: total}
			if res != nil {
				resp.Coverage.Strategy = res.Strategy
				resp.Coverage.Pruned = res.Pruned
			}
		}
		if err := json.NewEncoder(os.Stdout).Encode(resp); err != nil {
			log.Fatal(err)
		}
		emitArtifacts()
		if stopReason != nil {
			fmt.Fprintf(os.Stderr, "hmsplace: partial search: %v\n", stopReason)
			os.Exit(exitPartial)
		}
		return
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	if *measure {
		fmt.Fprintln(w, "RANK\tPLACEMENT\tPREDICTED(ns)\tSPEEDUP\tMEASURED(ns)\t")
	} else {
		fmt.Fprintln(w, "RANK\tPLACEMENT\tPREDICTED(ns)\tSPEEDUP\t")
	}
	samplePred := rows[0].predicted
	for _, r := range rows {
		if r.pl.Equal(samplePl) {
			samplePred = r.predicted
		}
	}
	for i, r := range rows {
		mark := ""
		if r.pl.Equal(samplePl) {
			mark = " (sample)"
		}
		if *measure {
			fmt.Fprintf(w, "%d\t%s%s\t%.0f\t%.2fx\t%.0f\t\n",
				i+1, r.pl.Format(tr), mark, r.predicted, samplePred/r.predicted, r.measured)
		} else {
			fmt.Fprintf(w, "%d\t%s%s\t%.0f\t%.2fx\t\n",
				i+1, r.pl.Format(tr), mark, r.predicted, samplePred/r.predicted)
		}
	}
	w.Flush()
	if res != nil && res.Strategy != "exhaustive" {
		fmt.Printf("\n%s search: evaluated %d of %d legal placements", res.Strategy, evals, total)
		if res.Pruned > 0 {
			fmt.Printf(" (%d pruned by bound)", res.Pruned)
		}
		fmt.Println()
	}

	if *explain && len(rows) > 0 {
		p, err := pred.Predict(rows[0].pl)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwhy %s is ranked first:\n%s", rows[0].pl.Format(tr), p.Explain(cfg.NSPerCycle()))
	}

	// Flush observability artifacts before any exit: a partial search
	// (exit code 3) must still leave its trace and metrics behind.
	emitArtifacts()

	if stopReason != nil {
		fmt.Printf("\npartial search: %v; ranking covers only the %d candidates evaluated\n",
			stopReason, evals)
		os.Exit(exitPartial)
	}
}

// runFleet is the -fleet mode: load the tenants and budgets, train one
// advisor, solve the capacity-constrained assignment, and render the result
// as a table or as the service's FleetRankResponse JSON.
func runFleet(ctx context.Context, cfg *gpu.Config, arch, spec, solverSpec, objectiveSpec string,
	budget, parallel int, jsonOut bool, rec obs.Recorder, emitArtifacts func()) {
	sv, err := fleet.ParseSolver(solverSpec)
	if err != nil {
		log.Fatal(err)
	}
	obj, err := fleet.ParseObjective(objectiveSpec)
	if err != nil {
		log.Fatal(err)
	}

	var tenants []fleet.Tenant
	budgets := fleet.DefaultBudgets(cfg)
	if name, ok := strings.CutPrefix(spec, "mix:"); ok {
		mix, ok := fleet.GetMix(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "hmsplace: unknown fleet mix %q (have %s)\n",
				name, strings.Join(fleet.MixNames(), ", "))
			os.Exit(exitUnknownName)
		}
		tenants = mix.Tenants
		budgets = mix.BudgetsOn(cfg)
	} else {
		tenants, budgets, err = parseFleetSpec(spec, budgets)
		if err != nil {
			log.Fatal(err)
		}
	}

	adv, err := advisor.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := fleet.Solve(ctx, adv, tenants, fleet.Options{
		Budgets:       &budgets,
		Objective:     obj,
		MaxCandidates: budget,
		Parallelism:   parallel,
		Solver:        sv,
		Recorder:      rec,
	})
	if err != nil {
		emitArtifacts()
		if errors.Is(err, fleet.ErrUnknownKernel) {
			fmt.Fprintf(os.Stderr, "hmsplace: %v (use -list)\n", err)
			os.Exit(exitUnknownName)
		}
		log.Fatal(err)
	}

	if jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(service.BuildFleetResponse(arch, res)); err != nil {
			log.Fatal(err)
		}
		emitArtifacts()
		return
	}

	fmt.Printf("fleet of %d tenants on %s, solver %s, objective %s\n\n",
		len(res.Assignments), arch, res.Solver, res.Objective)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "TENANT\tKERNEL\tPLACEMENT\tPREDICTED(ns)\tBEST(ns)\tSLOWDOWN")
	for _, a := range res.Assignments {
		name := a.Tenant
		if a.Weight != 1 {
			name = fmt.Sprintf("%s (w=%g)", a.Tenant, a.Weight)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.0f\t%.0f\t%.4fx\n",
			name, a.Kernel, a.Spec, a.PredictedNS, a.BestNS, a.Slowdown)
	}
	w.Flush()
	fmt.Printf("\nobjective %.4f", res.ObjectiveValue)
	switch {
	case res.Independent.UnconstrainedFits:
		fmt.Printf(" (capacity not binding: matches independent ranking)")
	case res.Independent.Feasible:
		fmt.Printf(" (naive independent placement: %.4f)", res.Independent.ObjectiveValue)
	default:
		fmt.Printf(" (naive independent placement is infeasible)")
	}
	fmt.Println()
	var usage []string
	for i, sp := range gpu.Spaces {
		if res.Budgets[i] >= 0 {
			usage = append(usage, fmt.Sprintf("%s %d/%d", sp.LongString(), res.Usage[i], res.Budgets[i]))
		}
	}
	if len(usage) > 0 {
		fmt.Printf("usage: %s\n", strings.Join(usage, ", "))
	}
	fmt.Printf("search: %d menu evaluations over %d tenants, %d assignment evaluations",
		res.MenuEvaluated, len(res.Assignments), res.AssignEvaluated)
	if res.Pruned > 0 {
		fmt.Printf(" (%d pruned)", res.Pruned)
	}
	fmt.Println()
	emitArtifacts()
}

// parseFleetSpec reads a tenant-spec file: one directive per line, "tenant"
// declaring a kernel instance and "budget" overriding one space's byte
// capacity on top of the architecture defaults. Comments (#) and blank lines
// are ignored.
func parseFleetSpec(path string, budgets fleet.Budgets) ([]fleet.Tenant, fleet.Budgets, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, budgets, err
	}
	defer f.Close()
	var tenants []fleet.Tenant
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "tenant":
			if len(fields) < 2 {
				return nil, budgets, fmt.Errorf("%s:%d: tenant needs a kernel name", path, line)
			}
			t := fleet.Tenant{Kernel: fields[1]}
			for _, opt := range fields[2:] {
				key, val, ok := strings.Cut(opt, "=")
				if !ok {
					return nil, budgets, fmt.Errorf("%s:%d: tenant option %q is not key=value", path, line, opt)
				}
				switch key {
				case "name":
					t.Name = val
				case "scale":
					if t.Scale, err = strconv.Atoi(val); err != nil {
						return nil, budgets, fmt.Errorf("%s:%d: scale %q: %v", path, line, val, err)
					}
				case "weight":
					if t.Weight, err = strconv.ParseFloat(val, 64); err != nil {
						return nil, budgets, fmt.Errorf("%s:%d: weight %q: %v", path, line, val, err)
					}
				case "sample":
					t.Sample = val
				default:
					return nil, budgets, fmt.Errorf("%s:%d: unknown tenant option %q", path, line, key)
				}
			}
			tenants = append(tenants, t)
		case "budget":
			if len(fields) != 2 {
				return nil, budgets, fmt.Errorf("%s:%d: budget needs one space=bytes pair", path, line)
			}
			name, val, ok := strings.Cut(fields[1], "=")
			if !ok {
				return nil, budgets, fmt.Errorf("%s:%d: budget %q is not space=bytes", path, line, fields[1])
			}
			sp, err := gpu.ParseSpace(name)
			if err != nil {
				return nil, budgets, fmt.Errorf("%s:%d: %v", path, line, err)
			}
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil || v < fleet.Unbounded {
				return nil, budgets, fmt.Errorf("%s:%d: budget bytes %q (want >= -1)", path, line, val)
			}
			budgets[sp] = v
		default:
			return nil, budgets, fmt.Errorf("%s:%d: unknown directive %q (want tenant or budget)", path, line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, budgets, err
	}
	if len(tenants) == 0 {
		return nil, budgets, fmt.Errorf("%s: no tenant directives", path)
	}
	return tenants, budgets, nil
}

// archHeader summarizes the resolved architecture for table output: the
// registry name, the hardware model, and the placement capacity of every
// space legal on it (remote spaces appear only for chiplet architectures).
func archHeader(archName string, cfg *gpu.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "arch %s (%s):", archName, cfg.Name)
	for _, sp := range gpu.Spaces {
		if sp.Remote() && !cfg.HasRemote() {
			continue
		}
		fmt.Fprintf(&b, " %s=%s", sp, fmtBytes(cfg.CapacityBytes(sp)))
	}
	if cfg.HasRemote() {
		fmt.Fprintf(&b, " (interposer %.0fns)", cfg.Interposer.LatencyNS)
	}
	return b.String()
}

// fmtBytes renders a capacity in the largest exact binary unit; negative
// means unbounded for placement purposes.
func fmtBytes(n int) string {
	switch {
	case n < 0:
		return "unbounded"
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
