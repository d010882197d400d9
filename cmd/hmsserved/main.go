// Command hmsserved is the placement-advisory service: a long-lived HTTP
// server that trains (or loads) one Advisor per architecture at startup and
// serves placement rankings and predictions over JSON — the paper's §I
// "tool to help programmers for GPU performance optimization" as a shared
// service instead of a per-invocation CLI.
//
//	hmsserved                                # k80 on :8080
//	hmsserved -addr :9090 -archs k80,fermi,hbm,chiplet
//	hmsserved -archs k80 -load-model k80.json
//	hmsserved -workers 8 -queue 128 -cache 512 -timeout 30s
//	hmsserved -workers 2 -parallel 8         # few requests, big rankings
//	hmsserved -strategy beam-4               # default to beam search (docs/SEARCH.md)
//	hmsserved -snapshot state.snap           # crash-safe warm boot (docs/ROBUSTNESS.md)
//
// Endpoints (docs/SERVICE.md): POST /v1/rank, POST /v1/predict,
// POST /v1/compare (one kernel ranked across several architectures,
// docs/ARCHES.md), POST /v1/fleet/rank (capacity-constrained multi-kernel
// placement, docs/FLEET.md; -fleet-solver sets its default solver),
// GET /v1/kernels, GET /v1/arches, GET /healthz, GET /readyz,
// GET /metrics. The -archs list resolves through the gpu registry, so any
// registered name or alias (k80, fermi, hbm, chiplet, …) can be kept warm.
// Concurrency is
// bounded by a worker pool with an explicit queue — a full queue sheds load
// with 429 and a jittered Retry-After, and requests whose deadline budget
// cannot cover the observed median service time are shed with 504 — and
// identical concurrent rankings collapse into a single search whose result
// is kept in an LRU cache.
//
// The listener binds before the advisors train: during warmup /healthz
// reports alive, /readyz reports 503, and the API sheds with 503 until the
// models are trained and any snapshot restore has finished.
//
// With -snapshot, warm state (trained models + result cache) is persisted
// atomically every -snapshot-interval, on SIGHUP, and after the shutdown
// drain; the next boot restores it, skipping (and counting in /metrics)
// anything that fails checksum, version, or schema validation. A corrupt or
// missing snapshot degrades to a cold boot, never a failed one.
//
// On SIGINT/SIGTERM the server stops accepting requests, gives in-flight
// searches -drain to finish, then aborts the rest via context cancellation,
// writes a final snapshot (when -snapshot is set), and exits 0.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gpuhms/internal/advisor"
	"gpuhms/internal/gpu"
	"gpuhms/internal/obs"
	"gpuhms/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hmsserved: ")

	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		archs    = flag.String("archs", "k80", "comma-separated architectures to keep warm (registry names or aliases): "+strings.Join(gpu.Names(), ", "))
		loadFr   = flag.String("load-model", "", "load a trained model JSON instead of training (single -archs entry only)")
		workers  = flag.Int("workers", 0, "concurrent searches (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "pending-request queue capacity (full queue answers 429)")
		cacheN   = flag.Int("cache", 256, "LRU result-cache capacity in responses (negative disables)")
		timeout  = flag.Duration("timeout", 60*time.Second, "default per-search wall-clock bound when the request has no timeout_ms")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown grace for in-flight searches")
		parallel = flag.Int("parallel", 0, "ranking workers per search when the request has no parallelism (0 = NumCPU/workers so the pool never oversubscribes, negative = sequential)")
		strategy = flag.String("strategy", "", "default search strategy when the request names none: exhaustive, greedy, or beam-W (docs/SEARCH.md)")
		fleetSlv = flag.String("fleet-solver", "", "default fleet assignment solver when a /v1/fleet/rank request names none: greedy or beam-W (docs/FLEET.md)")
		snapPath = flag.String("snapshot", "", "snapshot file for crash-safe warm boot: restored at startup, written periodically, on SIGHUP, and after the shutdown drain")
		snapIvl  = flag.Duration("snapshot-interval", 30*time.Second, "periodic snapshot cadence when -snapshot is set (0 disables the timer; SIGHUP and shutdown still write)")

		accessLog   = flag.String("access-log", "", "write one JSON access-log line per request to this file (\"-\" for stderr); schema in docs/OBSERVABILITY.md")
		traceOut    = flag.String("trace-out", "", "write the request/pool Chrome trace here at shutdown (chrome://tracing, Perfetto)")
		traceSample = flag.Int("trace-sample", 0, "record every Nth request's per-stage spans into the trace (0 disables sampling; IDs and access logs are unaffected)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this separate listener (keep it off the service port)")
		sloP99      = flag.Duration("slo-p99-ms", 250*time.Millisecond, "latency SLO target behind the service_slo_* burn gauges")
		sloAvail    = flag.Float64("slo-availability", 0.999, "availability SLO target (non-5xx fraction)")
	)
	flag.Parse()

	// The collector exists before anything warms so snapshot-restore skips
	// and model/advisor metrics all land on the same /metrics surface.
	col := obs.NewCollector()

	var accessLogger *slog.Logger
	switch *accessLog {
	case "":
	case "-":
		accessLogger = service.NewAccessLogger(os.Stderr)
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		accessLogger = service.NewAccessLogger(f)
	}

	// pprof lives on its own listener: profiling endpoints never share the
	// service port, so exposing the API does not expose heap dumps.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", dln.Addr())
		go func() {
			// DefaultServeMux carries the net/http/pprof registrations.
			if err := http.Serve(dln, nil); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	// Bind the listener before training: readiness (/readyz 503) is
	// observable from the first instant, and scripts using port 0 can
	// discover the port without waiting out the warmup.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// boot handler now, service handler once warm. atomic.Pointer rather
	// than atomic.Value: the two handlers have different concrete types,
	// which Value.Store forbids.
	var handler atomic.Pointer[http.Handler]
	boot := bootHandler()
	handler.Store(&boot)
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	})}
	// The resolved address is printed (not just the flag) so scripts using
	// port 0 can discover the port.
	fmt.Printf("hmsserved: listening on %s (archs %s)\n", ln.Addr(), strings.Join(requestedArchs(*archs), ","))
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	// Warm boot: read the snapshot (tolerant — damage shrinks it, never
	// fails it), then build advisors from restored models where possible.
	var snap *service.SnapshotContents
	if *snapPath != "" {
		snap, err = service.ReadSnapshotFile(*snapPath)
		if err != nil {
			log.Printf("snapshot %s unusable (%v): booting cold", *snapPath, err)
		}
		if snap.Skipped > 0 {
			col.Add(obs.MetricServiceSnapshotSkippedTotal, int64(snap.Skipped))
			log.Printf("snapshot: skipped %d damaged or unknown entries", snap.Skipped)
		}
	} else {
		snap = &service.SnapshotContents{}
	}

	advisors, err := buildAdvisors(*archs, *loadFr, snap.Models, col)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := service.New(advisors, service.Options{
		Workers:            *workers,
		QueueCap:           *queue,
		CacheCap:           *cacheN,
		DefaultTimeout:     *timeout,
		Parallelism:        *parallel,
		DefaultStrategy:    *strategy,
		DefaultFleetSolver: *fleetSlv,
		AccessLog:          accessLogger,
		TraceSampleEvery:   *traceSample,
		SLOTargetP99:       *sloP99,
		SLOAvailability:    *sloAvail,
	}, col)
	if err != nil {
		log.Fatal(err)
	}
	if len(snap.Cache) > 0 {
		restored, skipped := svc.RestoreCache(snap.Cache)
		log.Printf("snapshot: restored %d cached rankings (%d skipped)", restored, skipped)
	}
	if len(snap.Fleet) > 0 {
		restored, skipped := svc.RestoreFleetCache(snap.Fleet)
		log.Printf("snapshot: restored %d cached fleet solves (%d skipped)", restored, skipped)
	}

	// Warm: swap the real handler in and flip readiness.
	warm := svc.Handler()
	handler.Store(&warm)
	svc.MarkReady()
	log.Printf("ready (archs %s)", strings.Join(sortedKeys(advisors), ","))

	var snapshotter *service.Snapshotter
	if *snapPath != "" {
		snapshotter = svc.StartSnapshotter(*snapPath, *snapIvl, log.Printf)
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
serve:
	for {
		select {
		case sig := <-sigCh:
			if sig == syscall.SIGHUP {
				if snapshotter != nil {
					log.Print("SIGHUP: snapshot requested")
					snapshotter.Trigger()
				}
				continue
			}
			log.Printf("received %v, draining (up to %v)", sig, *drain)
			break serve
		case err := <-errCh:
			log.Fatalf("serve: %v", err)
		}
	}

	if snapshotter != nil {
		snapshotter.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := svc.Shutdown(ctx); err != nil {
		log.Printf("service shutdown: %v", err)
	}
	// The final snapshot happens after the drain, when the cache has stopped
	// changing: the next boot resumes exactly where this one left off.
	if *snapPath != "" {
		if err := svc.SaveSnapshot(*snapPath); err != nil {
			log.Printf("final snapshot: %v", err)
		} else {
			log.Printf("final snapshot written to %s", *snapPath)
		}
	}
	// The trace is written after the drain too, so the last sampled
	// requests' spans are complete.
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Printf("trace: %v", err)
		} else {
			if err := col.WriteChromeTrace(f); err != nil {
				log.Printf("trace: %v", err)
			} else {
				log.Printf("trace written to %s", *traceOut)
			}
			f.Close()
		}
	}
	log.Print("drained, bye")
}

// bootHandler serves the warmup window between bind and readiness: alive on
// /healthz, not ready on /readyz, and 503 (retryable) everywhere else.
func bootHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(service.HealthResponse{Status: "booting"})
	})
	notReady := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(service.ReadyResponse{Ready: false, Reason: "warming: advisors training or snapshot restore in progress"})
	}
	mux.HandleFunc("GET /readyz", notReady)
	mux.HandleFunc("/", notReady)
	return mux
}

// requestedArchs normalizes the -archs flag into the banner's arch list:
// registry aliases print as their canonical names; unknown names pass
// through (validation happens later in buildAdvisors).
func requestedArchs(archList string) []string {
	var out []string
	for _, name := range strings.Split(archList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			if canon, err := gpu.Canonical(name); err == nil {
				name = canon
			}
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// buildAdvisors trains (or loads) one advisor per requested architecture.
// A snapshot-restored model takes precedence over training; a model that
// fails to load falls back to training and counts as a skipped snapshot
// entry. Training runs are independent, so architectures train concurrently
// — bounded to NumCPU workers — and multi-arch boot takes roughly as long
// as the slowest single architecture. Every advisor records into a
// metrics-only view of col: /metrics carries the model and advisor metrics
// alongside the service ones, while the trace timeline holds only the spans
// of sampled requests.
func buildAdvisors(archList, loadFrom string, saved map[string]json.RawMessage, col obs.Recorder) (map[string]*advisor.Advisor, error) {
	names := strings.Split(archList, ",")
	if loadFrom != "" && len(names) != 1 {
		return nil, errors.New("-load-model requires exactly one -archs entry")
	}
	cfgs := make(map[string]*gpu.Config, len(names))
	for _, name := range names {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		// The registry is the single production path to a *gpu.Config:
		// aliases resolve to canonical names (so "-archs Tesla-K80" serves
		// under "k80") and every profile arrives pre-validated.
		canon, err := gpu.Canonical(name)
		if err != nil {
			return nil, err
		}
		cfg, err := gpu.Lookup(canon)
		if err != nil {
			return nil, err
		}
		cfgs[canon] = cfg
	}
	if len(cfgs) == 0 {
		return nil, errors.New("no architectures requested")
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		advisors = make(map[string]*advisor.Advisor, len(cfgs))
		sem      = make(chan struct{}, max(1, runtime.NumCPU()))
	)
	for name, cfg := range cfgs {
		wg.Add(1)
		go func(name string, cfg *gpu.Config) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			var adv *advisor.Advisor
			var err error
			how := "trained"
			switch {
			case loadFrom != "":
				f, ferr := os.Open(loadFrom)
				if ferr != nil {
					err = ferr
				} else {
					adv, err = advisor.NewFromSaved(cfg, f)
					f.Close()
				}
				how = "loaded"
			case saved[name] != nil:
				adv, err = advisor.NewFromSaved(cfg, bytes.NewReader(saved[name]))
				if err != nil {
					// A stale or forged model is one more skipped snapshot
					// entry, not a boot failure: train instead.
					log.Printf("advisor %s: snapshot model rejected (%v), training instead", name, err)
					obs.OrNop(col).Add(obs.MetricServiceSnapshotSkippedTotal, 1)
					adv, err = advisor.New(cfg)
				} else {
					how = "restored"
				}
			default:
				adv, err = advisor.New(cfg)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("advisor %s: %w", name, err)
				}
				return
			}
			adv.Recorder = obs.MetricsOnly(col)
			advisors[name] = adv
			log.Printf("advisor %s %s in %v", name, how, time.Since(start).Round(time.Millisecond))
		}(name, cfg)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return advisors, nil
}

// sortedKeys lists map keys in stable order for the startup banner.
func sortedKeys(m map[string]*advisor.Advisor) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
