package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpuhms/internal/advisor"
	"gpuhms/internal/fleet"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/kernels"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
	"gpuhms/internal/snapshot"
	"gpuhms/internal/trace"
)

// Options configures a Server. The zero value gets sensible defaults.
type Options struct {
	// Workers is the number of concurrent searches (default GOMAXPROCS).
	Workers int
	// QueueCap is the pending-request queue; a full queue sheds load with
	// 429 (default 64).
	QueueCap int
	// CacheCap is the LRU result-cache capacity in responses (default 256;
	// negative disables caching but keeps singleflight).
	CacheCap int
	// DefaultTimeout bounds a search's wall clock when the request carries
	// no timeout_ms (default 60s; negative means unlimited).
	DefaultTimeout time.Duration
	// RetryAfter is the base Retry-After value (seconds) for shed responses
	// (default 1). The value actually sent on 429/503 is full-jitter
	// exponential: uniform in [1, RetryAfter << k], where k grows with the
	// queue's fullness — synchronized client retries decorrelate instead of
	// re-stampeding the pool.
	RetryAfter int
	// SnapshotFaults optionally injects chaos (write failures, torn writes,
	// slow I/O) into SaveSnapshot; nil disables injection. Wired by the soak
	// harness via internal/faults.Points.
	SnapshotFaults snapshot.FaultHooks
	// Parallelism is the ranking worker count for requests that don't ask
	// for one. The default is queue-aware: NumCPU divided by the pool's
	// Workers (at least 1), so pool × parallelism never oversubscribes the
	// machine. Negative forces sequential ranking.
	Parallelism int
	// DefaultStrategy is the search strategy applied when a request carries
	// no "strategy" field: "exhaustive" (the default when empty), "greedy",
	// or "beam-W". It is normalized to its canonical spec at New, so cache
	// keys are stable across spellings.
	DefaultStrategy string
	// DefaultFleetSolver is the fleet assignment solver applied when a
	// /v1/fleet/rank request carries no "solver" field: "greedy" (the
	// default when empty) or "beam-W". Normalized like DefaultStrategy.
	DefaultFleetSolver string
	// AccessLog, when set, receives one structured JSON record per request
	// (id, route, status, cache state, per-stage nanoseconds — the schema
	// documented in docs/OBSERVABILITY.md and pinned by TestAccessLogSchema).
	// Nil disables access logging.
	AccessLog *slog.Logger
	// TraceSampleEvery records every Nth request's per-stage spans into the
	// collector's Chrome-trace timeline (0 disables span sampling). Request
	// IDs and access logs are unaffected: every request gets those.
	TraceSampleEvery int
	// SLOTargetP99 is the latency SLO target fed to the rolling-window
	// tracker behind the service_slo_* gauges (default 250ms).
	SLOTargetP99 time.Duration
	// SLOAvailability is the availability SLO target (default 0.999).
	SLOAvailability float64
	// SLOWindow is the rolling window of the SLO quantiles and burn rates
	// (default 60s).
	SLOWindow time.Duration
	// SLONow injects the SLO tracker's clock; tests use a fake one so
	// window expiry is testable without sleeping. Nil uses the wall clock.
	SLONow func() time.Time
}

// withDefaults fills unset options and normalizes the default strategy.
func (o Options) withDefaults() (Options, error) {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Parallelism == 0 {
		o.Parallelism = max(1, runtime.NumCPU()/o.Workers)
	} else if o.Parallelism < 0 {
		o.Parallelism = 1
	}
	if o.QueueCap == 0 {
		o.QueueCap = 64
	}
	if o.CacheCap == 0 {
		o.CacheCap = 256
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.RetryAfter == 0 {
		o.RetryAfter = 1
	}
	strat, err := advisor.ParseStrategy(o.DefaultStrategy)
	if err != nil {
		return o, err
	}
	o.DefaultStrategy = strat.Spec()
	solver, err := fleet.ParseSolver(o.DefaultFleetSolver)
	if err != nil {
		return o, err
	}
	o.DefaultFleetSolver = solver.Spec()
	return o, nil
}

// Server is the placement-advisory service: warm trained Advisors (one per
// architecture name) behind a worker pool, an LRU result cache with
// singleflight, and the HTTP API of docs/SERVICE.md. Construct with New,
// expose Handler(), and stop with Shutdown.
type Server struct {
	advisors map[string]*advisor.Advisor
	archs    []string // sorted advisor keys
	opt      Options
	col      *obs.Collector
	pool     *Pool
	cache    *Cache[*RankResponse]
	// fleetCache is the fleet endpoint's own LRU+singleflight instance:
	// fleet results are larger and keyed differently, so they never evict
	// single-kernel rankings (and vice versa).
	fleetCache *Cache[*FleetRankResponse]
	start      time.Time
	handler    http.Handler // built once by New; see Handler

	// slo tracks rolling-window latency/availability against the configured
	// targets; its Publish runs as a scrape hook on the collector.
	slo *obs.SLOTracker
	// reqSeq numbers requests for trace sampling (every Nth is sampled).
	reqSeq atomic.Int64

	// ready gates GET /readyz: false (503) until MarkReady, which the boot
	// sequence calls once every advisor is trained and any snapshot restore
	// has finished. Liveness (/healthz) is independent of it.
	ready atomic.Bool

	// jitter drives the full-jitter Retry-After values; guarded because
	// math/rand.Rand is not concurrency-safe.
	jitterMu sync.Mutex
	jitter   *rand.Rand

	// baseCtx parents every search; cancel aborts all in-flight work
	// (the forced-drain path of Shutdown).
	baseCtx context.Context
	cancel  context.CancelFunc
}

// New builds a server over trained advisors keyed by architecture name
// ("k80", "fermi"). The collector backs GET /metrics and all service
// telemetry; nil creates a private one. Advisors must not be mutated after
// New.
func New(advisors map[string]*advisor.Advisor, opt Options, col *obs.Collector) (*Server, error) {
	if len(advisors) == 0 {
		return nil, fmt.Errorf("service: no advisors")
	}
	if col == nil {
		col = obs.NewCollector()
	}
	obs.RegisterServiceMetrics(col.Registry())
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	archs := make([]string, 0, len(advisors))
	for name, adv := range advisors {
		if adv == nil || adv.Cfg == nil || adv.Model == nil {
			return nil, fmt.Errorf("service: advisor %q is not initialized", name)
		}
		archs = append(archs, name)
	}
	sort.Strings(archs)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		advisors:   advisors,
		archs:      archs,
		opt:        opt,
		col:        col,
		pool:       NewPool(opt.Workers, opt.QueueCap, col),
		cache:      NewCache[*RankResponse](opt.CacheCap, col),
		fleetCache: NewCache[*FleetRankResponse](opt.CacheCap, col),
		start:      time.Now(),
		baseCtx:    ctx,
		cancel:     cancel,
		jitter:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	s.slo = obs.NewSLOTracker(obs.SLOOptions{
		Window:             opt.SLOWindow,
		TargetP99:          opt.SLOTargetP99,
		TargetAvailability: opt.SLOAvailability,
		Now:                opt.SLONow,
	})
	col.AddScrapeHook(s.slo.Publish)
	obs.RegisterRuntimeHealth(col)
	s.handler = s.newHandler()
	return s, nil
}

// MarkReady flips GET /readyz to 200. The boot sequence calls it once every
// advisor is trained and any snapshot restore has finished; until then the
// probe answers 503 so an orchestrator keeps traffic away from a still-cold
// instance.
func (s *Server) MarkReady() {
	s.ready.Store(true)
	s.col.Gauge(obs.MetricServiceReady, 1)
}

// Ready reports whether MarkReady has run.
func (s *Server) Ready() bool { return s.ready.Load() }

// retryAfterSeconds computes one full-jitter Retry-After value: the base
// doubles as the queue fills (exponent 0..4 over the depth/capacity ratio)
// and the reply is uniform in [1, base<<k]. Randomizing the whole interval
// — not just a fraction of it — is what decorrelates a synchronized herd:
// clients that were rejected together retry spread across the window.
func retryAfterSeconds(depth, queueCap, base int, intn func(int) int) int {
	if base < 1 {
		base = 1
	}
	k := 0
	if queueCap > 0 {
		k = 4 * depth / queueCap
		if k > 4 {
			k = 4
		}
	}
	return 1 + intn(base<<k)
}

// retryAfter derives the Retry-After for one shed response from the current
// queue depth.
func (s *Server) retryAfter() int {
	s.jitterMu.Lock()
	defer s.jitterMu.Unlock()
	return retryAfterSeconds(s.pool.QueueDepth(), s.opt.QueueCap, s.opt.RetryAfter, s.jitter.Intn)
}

// Collector exposes the server's telemetry (the /metrics backing store).
func (s *Server) Collector() *obs.Collector { return s.col }

// advisorFor resolves an architecture name ("" defaults to "k80" when
// warm, else the only/first advisor).
func (s *Server) advisorFor(arch string) (*advisor.Advisor, string, error) {
	if arch == "" {
		if _, ok := s.advisors["k80"]; ok {
			arch = "k80"
		} else {
			arch = s.archs[0]
		}
	}
	adv, ok := s.advisors[arch]
	if !ok {
		return nil, arch, fmt.Errorf("%w: %q (have %v)", ErrUnknownArch, arch, s.archs)
	}
	return adv, arch, nil
}

// searchContext derives the context a search runs under: a child of the
// server's base context (so Shutdown can abort it), bounded by the
// client-requested timeout or the server default.
func (s *Server) searchContext(timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.opt.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(s.baseCtx, d)
	}
	return context.WithCancel(s.baseCtx)
}

// Cache outcomes for the X-HMS-Cache response header.
const (
	cacheHit    = "hit"    // served from the LRU cache
	cacheMiss   = "miss"   // this request led the search
	cacheShared = "shared" // joined an identical search in flight
)

// submit hands one search to the worker pool under a fresh search context
// (server base + request timeout) and delivers its outcome exactly once:
// run's result from the worker, or the error when the pool rejects the job
// at submit or sheds it at dequeue. The search deadline rides along to the
// pool, so a job whose remaining budget cannot cover the observed service
// time is shed with 504 instead of starting a doomed search. The queue stage
// opens here and ends at pickup; the search stage times run on the worker.
func submit[V any](s *Server, rt *ReqTrace, timeoutMS int,
	run func(ctx context.Context) (V, error), deliver func(V, error)) {
	var zero V
	ctx, cancel := s.searchContext(timeoutMS)
	deadline, _ := ctx.Deadline()
	endQueue := rt.BeginStage(StageQueue)
	err := s.pool.SubmitDeadline(deadline, func() {
		defer cancel()
		endQueue()
		endSearch := rt.BeginStage(StageSearch)
		v, err := run(ctx)
		endSearch()
		deliver(v, err)
	}, func(err error) {
		cancel()
		deliver(zero, err)
	})
	if err != nil {
		cancel()
		deliver(zero, err)
	}
}

// doCached serves one request through a cache, singleflight, and the worker
// pool — the shared engine behind doRank and doFleet. The search runs
// detached from the caller: it is bounded by the search context, not by the
// caller's presence, so a client that gives up waiting does not waste the
// work — the result still lands in the cache. The caller's reqCtx only
// bounds the wait: when it fires first, the mapped error (499/504) is
// returned while the flight completes behind the scenes. A rejected or shed
// leader completes its flight with the backpressure error, so every waiter
// sheds with it.
func doCached[V any](s *Server, reqCtx context.Context, cache *Cache[V], key string,
	timeoutMS int, run func(ctx context.Context) (V, error)) (V, string, error) {
	rt := TraceFrom(reqCtx)
	endCache := rt.BeginStage(StageCache)
	resp, fl, leader := cache.Begin(key)
	endCache()
	outcome := cacheShared
	switch {
	case fl == nil:
		s.col.Add(obs.MetricServiceCacheHitsTotal, 1)
		rt.SetCache(cacheHit)
		return resp, cacheHit, nil
	case leader:
		outcome = cacheMiss
		s.col.Add(obs.MetricServiceCacheMissesTotal, 1)
		submit(s, rt, timeoutMS, run, func(v V, err error) { cache.Complete(key, v, err) })
	default:
		s.col.Add(obs.MetricServiceSingleflightSharedTotal, 1)
	}
	rt.SetCache(outcome)
	resp, err := fl.wait(reqCtx)
	return resp, outcome, err
}

// doRank serves one rank request through the rank cache.
func (s *Server) doRank(reqCtx context.Context, adv *advisor.Advisor, req *RankRequest) (*RankResponse, string, error) {
	return doCached(s, reqCtx, s.cache, RankKey(req), req.TimeoutMS,
		func(ctx context.Context) (*RankResponse, error) {
			return s.runRank(ctx, adv, req)
		})
}

// doFleet serves one fleet request through the fleet cache.
func (s *Server) doFleet(reqCtx context.Context, adv *advisor.Advisor, req *FleetRankRequest) (*FleetRankResponse, string, error) {
	return doCached(s, reqCtx, s.fleetCache, FleetKey(req), req.TimeoutMS,
		func(ctx context.Context) (*FleetRankResponse, error) {
			return s.runFleet(ctx, adv, req)
		})
}

// archInfos builds the GET /v1/arches body from the warm advisor set: every
// served architecture with its capacity table, in sorted name order. The
// reply is a pure function of the advisor set, so it is byte-identical
// across calls and worker counts.
func (s *Server) archInfos() *ArchesResponse {
	out := &ArchesResponse{Arches: make([]ArchInfo, 0, len(s.archs))}
	for _, name := range s.archs {
		cfg := s.advisors[name].Cfg
		info := ArchInfo{
			Name:        name,
			Model:       cfg.Name,
			Description: gpu.Describe(name),
			HasRemote:   cfg.HasRemote(),
			Capacities:  make([]SpaceCapacity, 0, gpu.NumSpaces),
		}
		if cfg.HasRemote() {
			info.InterposerNS = cfg.Interposer.LatencyNS
		}
		for _, sp := range gpu.Spaces {
			if sp.Remote() && !cfg.HasRemote() {
				continue // the space is not legal on this architecture
			}
			info.Capacities = append(info.Capacities, SpaceCapacity{
				Space:         sp.LongString(),
				CapacityBytes: int64(cfg.CapacityBytes(sp)),
			})
		}
		out.Arches = append(out.Arches, info)
	}
	return out
}

// compareArches resolves a compare request's arch list: empty means every
// warm arch in sorted order; otherwise each (already canonicalized) name
// must have a warm advisor.
func (s *Server) compareArches(req *CompareRequest) ([]string, error) {
	if len(req.Arches) == 0 {
		return s.archs, nil
	}
	for _, a := range req.Arches {
		if _, ok := s.advisors[a]; !ok {
			return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownArch, a, s.archs)
		}
	}
	return req.Arches, nil
}

// doCompare ranks one kernel across several architectures by fanning out to
// doRank — one sub-request per arch, in list order, each flowing through the
// rank cache, singleflight, worker pool, and budget semantics exactly as a
// standalone /v1/rank would. Because each per-arch ranking is deterministic
// and the assembly order is the request order, a compare body is
// byte-identical across worker counts and cache states. The second return is
// the aggregated cache outcome: "hit" only when every sub-ranking hit.
func (s *Server) doCompare(reqCtx context.Context, req *CompareRequest) (*CompareResponse, string, error) {
	arches, err := s.compareArches(req)
	if err != nil {
		return nil, cacheMiss, err
	}
	resp := &CompareResponse{
		Kernel:  req.Kernel,
		Scale:   req.Scale,
		Results: make([]CompareArchResult, 0, len(arches)),
	}
	outcome := cacheHit
	for _, arch := range arches {
		adv, name, err := s.advisorFor(arch)
		if err != nil {
			return nil, outcome, err
		}
		sub := &RankRequest{
			Arch:          name,
			Kernel:        req.Kernel,
			Scale:         req.Scale,
			Sample:        req.Sample,
			TopK:          req.TopK,
			MaxCandidates: req.MaxCandidates,
			Parallelism:   req.Parallelism,
			Strategy:      req.Strategy,
			TimeoutMS:     req.TimeoutMS,
		}
		rr, oc, err := s.doRank(reqCtx, adv, sub)
		if err != nil {
			return nil, outcome, fmt.Errorf("arch %q: %w", name, err)
		}
		if oc == cacheMiss || (oc == cacheShared && outcome == cacheHit) {
			outcome = oc
		}
		resp.Results = append(resp.Results, CompareArchResult{
			Arch:     name,
			Sample:   rr.Sample,
			Ranked:   rr.Ranked,
			Partial:  rr.Partial,
			Coverage: rr.Coverage,
		})
		if rr.Partial {
			resp.Partial = true
		}
	}
	return resp, outcome, nil
}

// runRank executes one ranking search on a worker.
func (s *Server) runRank(ctx context.Context, adv *advisor.Advisor, req *RankRequest) (*RankResponse, error) {
	s.col.Add(obs.MetricServiceSearchesTotal, 1)
	tr, sample, err := s.resolve(adv, req.Kernel, req.Scale, req.Sample)
	if err != nil {
		return nil, err
	}
	parallelism := s.opt.Parallelism
	if req.Parallelism > 0 {
		parallelism = req.Parallelism
	}
	// The request strategy was canonicalized at decode and defaulted by the
	// rank handler; ParseStrategy here only rebuilds the Strategy value.
	strat, err := advisor.ParseStrategy(req.Strategy)
	if err != nil {
		return nil, err
	}
	res, err := adv.RankPlacements(ctx, tr, sample, advisor.RankOptions{
		TopK:          req.TopK,
		MaxCandidates: req.MaxCandidates,
		Parallelism:   parallelism,
		Strategy:      strat,
	})
	resp := &RankResponse{
		Arch:   req.Arch,
		Kernel: req.Kernel,
		Scale:  req.Scale,
		Sample: sample.Format(tr),
	}
	if err != nil {
		if !errors.Is(err, hmserr.ErrBudgetExceeded) {
			return nil, err
		}
		resp.Partial = true
	}
	if res != nil {
		// Coverage accompanies every partial or sub-exhaustive ranking, so
		// the response records what the search actually looked at (and what
		// the beam's bound pruned).
		if resp.Partial || res.Strategy != "exhaustive" {
			resp.Coverage = &Coverage{
				Evaluated: res.Evaluated,
				Total:     res.Total,
				Strategy:  res.Strategy,
				Pruned:    res.Pruned,
			}
		}
		resp.Ranked = BuildRanked(tr, sample, res.Ranked)
	}
	return resp, nil
}

// runPredict executes one single-placement prediction on a worker.
func (s *Server) runPredict(ctx context.Context, adv *advisor.Advisor, req *PredictRequest) (*PredictResponse, error) {
	tr, sample, err := s.resolve(adv, req.Kernel, req.Scale, req.Sample)
	if err != nil {
		return nil, err
	}
	target, err := placement.Parse(tr, req.Target)
	if err != nil {
		return nil, err
	}
	if err := placement.Check(tr, target, adv.Cfg); err != nil {
		return nil, err
	}
	pr, err := adv.PredictorContext(ctx, tr, sample)
	if err != nil {
		return nil, err
	}
	p, err := pr.Predict(target)
	if err != nil {
		return nil, err
	}
	return &PredictResponse{
		Arch:        req.Arch,
		Kernel:      req.Kernel,
		Scale:       req.Scale,
		Sample:      sample.Format(tr),
		Target:      target.Format(tr),
		PredictedNS: p.TimeNS,
	}, nil
}

// resolve turns (kernel, scale, sample spec) into a generated trace and a
// checked sample placement.
func (s *Server) resolve(adv *advisor.Advisor, kernel string, scale int, sampleSpec string) (*trace.Trace, *placement.Placement, error) {
	spec, ok := kernels.Get(kernel)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownKernel, kernel)
	}
	tr := spec.Trace(scale)
	var sample *placement.Placement
	var err error
	if sampleSpec != "" {
		sample, err = placement.Parse(tr, sampleSpec)
	} else {
		sample, err = spec.SamplePlacement(tr)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := placement.Check(tr, sample, adv.Cfg); err != nil {
		return nil, nil, err
	}
	return tr, sample, nil
}

// BuildRanked converts an advisor ranking into wire rows, marking the
// sample placement's own row and computing speedups against its prediction
// when the sample appears in the ranking. It is shared by the server and
// `hmsplace -json`, so CLI and service outputs are interchangeable.
func BuildRanked(tr *trace.Trace, sample *placement.Placement, ranked []advisor.Ranked) []RankedPlacement {
	sampleNS := 0.0
	for _, r := range ranked {
		if r.Placement.Equal(sample) {
			sampleNS = r.PredictedNS
			break
		}
	}
	rows := make([]RankedPlacement, len(ranked))
	for i, r := range ranked {
		rows[i] = RankedPlacement{
			Placement:   r.Placement.Format(tr),
			PredictedNS: r.PredictedNS,
			IsSample:    r.Placement.Equal(sample),
		}
		if sampleNS > 0 && r.PredictedNS > 0 {
			rows[i].SpeedupVsSample = sampleNS / r.PredictedNS
		}
	}
	return rows
}

// Shutdown drains the server gracefully: no new work is accepted, queued
// and running searches are given until ctx expires to finish, then the
// base context is canceled so the rest abort promptly (their waiters
// receive the mapped cancellation errors). It returns once every worker
// has exited; the HTTP listener itself is the caller's to stop first
// (http.Server.Shutdown in cmd/hmsserved).
func (s *Server) Shutdown(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel() // force in-flight searches to abort via context cancellation
		<-done
	}
	s.cancel()
	return nil
}

// Close shuts the server down immediately: in-flight searches are
// canceled, not drained.
func (s *Server) Close() {
	s.cancel()
	s.pool.Close()
}
