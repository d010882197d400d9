package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
	"unsafe"

	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
	"gpuhms/internal/service"
	"gpuhms/internal/sim"
)

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	tiny     bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// spansPath receives the traced replay's spans; empty skips writing.
	spansPath string
}

// metric is one printed figure with its sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is everything a run reports.
type result struct {
	attempted, failed int
	failures          []string
	selfCheck         []string // drifted workload shares; empty when every share held
	shares            []metric
	endToEnd          []metric
	wall              []metric // the end-to-end figures before steal is taken out
	perLayer          []metric
}

func (r *result) correct() bool { return r.failed == 0 && len(r.selfCheck) == 0 }

// maxReplay caps how many cached-mix requests the traced replay re-executes;
// its per-request cost is a few microseconds, so the cap bounds span memory
// without thinning the sample.
const maxReplay = 20000

// answer is one distinct served top-1 placement, simulated after the window
// for pred_err_pct.
type answer struct {
	arch, kernel      string
	scale             int
	sample, placement string
	predictedNS       float64
}

// answers collects the distinct top-1 placements of rank and compare replies.
type answers struct {
	mu   sync.Mutex
	seen map[string]answer
}

func (a *answers) add(rep *reply) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, rk := range rep.rankings {
		x := answer{rk.arch, rk.kernel, rk.scale, rk.sample, rk.rows[0].Placement, rk.rows[0].PredictedNS}
		a.seen[fmt.Sprintf("%s|%s|%d|%s|%s", x.arch, x.kernel, x.scale, x.sample, x.placement)] = x
	}
}

// window is what the measured window leaves behind for the metrics and the
// replay.
type window struct {
	sent    []sent    // every reply of the window, in dispatch order
	first   []sent    // the first pass (cold) or the whole window (cached-mix)
	span    interval  // the window, from the first request sent to the last reply
	warm    []request // cached-mix's prewarm set
	replay  []request // the sequence the traced replay re-executes
	tops    []string  // handler top-1 per replay position
	svc     *service.Server
	gcFrac  float64
	allocKB float64
	heapMiB float64
	answers *answers
}

// run executes one benchmark run. Every time it reports is wall time less
// the share the host stole (see stealClock).
func run(ctx context.Context, cfg runConfig) (*result, error) {
	p, err := newPlan(cfg.workload, cfg.seed, cfg.tiny)
	if err != nil {
		return nil, err
	}
	clk, err := startStealClock()
	if err != nil {
		return nil, fmt.Errorf("perfbench needs Linux's CPU time accounting: %w", err)
	}
	stopped := false
	stop := func() {
		if !stopped {
			clk.stop()
			stopped = true
		}
	}
	defer stop()
	res := &result{}

	var e *env
	var setups []interval
	trainS := map[string][]float64{}
	for i := 0; i < max(1, cfg.setups); i++ {
		runtime.GC() // start every set-up from the same heap
		ne, svc, train, iv, err := setup(clk)
		if err != nil {
			return nil, err
		}
		svc.Close()
		e = ne
		setups = append(setups, iv)
		for a, s := range train {
			trainS[a] = append(trainS[a], s)
		}
	}

	fails := &failures{}
	w, err := measure(clk, e, p, cfg.window, fails)
	if err != nil {
		return nil, err
	}
	defer w.svc.Close()
	var rp *replayed
	if cfg.trace {
		if rp, err = replayWindow(ctx, clk, e, w, cfg, fails); err != nil {
			return nil, err
		}
	}
	stop()

	setupS := make([]float64, len(setups))
	for i, iv := range setups {
		setupS[i] = clk.less(iv.start, iv.end).Seconds()
	}
	var posts, hits int
	wall := make([]float64, len(w.sent))
	lats := make([]float64, len(w.sent))
	for i, s := range w.sent {
		wall[i] = float64(s.end-s.start) / 1e6
		lats[i] = float64(clk.less(s.start, s.end)) / 1e6
		if s.post {
			posts++
			if s.hit {
				hits++
			}
		}
	}
	span, spanLess := w.span.end-w.span.start, clk.less(w.span.start, w.span.end)
	done := w.completed(lats, len(p.list))
	hitRatio := 0.0
	if posts > 0 {
		hitRatio = float64(hits) / float64(posts)
	}
	predErr, nAnswers, err := predictionError(ctx, e, w.answers)
	if err != nil {
		return nil, err
	}
	res.attempted = len(w.sent) + len(p.warm)
	// Latencies are taken over the window's whole passes of the list, so that
	// every run's sample has the workload's mix whatever the seed put into
	// the pass the deadline cut.
	n := len(lats) / len(p.list) * len(p.list)
	if n == 0 {
		n = len(lats)
	}
	lats, wall = lats[:n], wall[:n]
	res.endToEnd = []metric{
		{"setup_s", median(setupS), "s", len(setupS)},
		{"latency_p50_ms", quantile(lats, 0.50), "ms", n},
		{"latency_p90_ms", quantile(lats, 0.90), "ms", n},
		{"latency_p99_ms", quantile(lats, 0.99), "ms", n},
		{"throughput_rps", done / spanLess.Seconds(), "1/s", len(w.sent)},
		{"pred_err_pct", predErr, "%", nAnswers},
		{"heap_live_mb", w.heapMiB, "MiB", 1},
	}
	res.wall = []metric{
		{"wall.steal_share", 1 - float64(spanLess)/float64(span), "ratio", 1},
		{"wall.latency_p50_ms", quantile(wall, 0.50), "ms", n},
		{"wall.latency_p90_ms", quantile(wall, 0.90), "ms", n},
		{"wall.latency_p99_ms", quantile(wall, 0.99), "ms", n},
		{"wall.throughput_rps", done / span.Seconds(), "1/s", len(w.sent)},
	}

	planned, err := repeatShare(p.list)
	if err != nil {
		return nil, err
	}
	shares := kindShares(p.list)
	for _, k := range []string{kindRank, kindCompare, kindFleet, kindKernels, kindArches} {
		if s, ok := shares[k]; ok {
			res.shares = append(res.shares, metric{"share." + k, s, "ratio", len(p.list)})
		}
	}
	res.shares = append(res.shares,
		metric{"planned.profile_repeat_frac", planned, "ratio", len(p.list)},
		metric{"service.hit_ratio", hitRatio, "ratio", posts})
	res.checkShare(cfg.workload, "planned profile repeat share", planned)
	res.checkHits(cfg.workload, hitRatio)

	if rp != nil {
		layers := rp.metrics(clk, w)
		for a, s := range trainS {
			layers = append(layers, metric{"setup.train_s." + a, median(s), "s", len(s)})
		}
		layers = append(layers,
			metric{"service.hit_ratio", hitRatio, "ratio", posts},
			metric{"runtime.gc_cpu_frac", w.gcFrac, "ratio", 1},
			metric{"runtime.alloc_kb_per_req", w.allocKB, "KiB", len(w.sent)})
		sort.Slice(layers, func(i, j int) bool { return layers[i].name < layers[j].name })
		res.perLayer = layers
		for _, m := range layers {
			if m.name == "sim.profile_repeat_frac" {
				res.checkShare(cfg.workload, "traced sim.profile_repeat_frac", m.value)
			}
		}
	}
	res.failed, res.failures = fails.n, fails.msgs
	res.endToEnd = append(res.endToEnd, metric{"failed_frac", float64(res.failed) / float64(res.attempted), "ratio", res.attempted})
	return res, nil
}

// repeatBands are the profile-repeat shares that define the cold workloads:
// about 2/3 on cold-profile, none on search-exhaustive.
var repeatBands = map[string][2]float64{coldProfile: {0.55, 0.80}, searchExhaustive: {0, 0}}

// checkShare fails the run when a workload's profile-repeat share leaves its
// band.
func (r *result) checkShare(workload, what string, v float64) {
	band, ok := repeatBands[workload]
	if ok && (v < band[0] || v > band[1]) {
		r.selfCheck = append(r.selfCheck, fmt.Sprintf("%s %s = %.4f, outside %v", workload, what, v, band))
	}
}

// checkHits fails the run unless every POST missed the result cache on the
// cold workloads and hit it on cached-mix.
func (r *result) checkHits(workload string, ratio float64) {
	want := 0.0
	if workload == cachedMix {
		want = 1
	}
	if ratio != want {
		r.selfCheck = append(r.selfCheck, fmt.Sprintf("%s service.hit_ratio = %.4f, want %.0f", workload, ratio, want))
	}
}

// runtimeSample reads the runtime counters the window reports.
func runtimeSample() (gcCPU, totalCPU, allocBytes float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())
}

// measure runs the timed window. A cold plan sends its list in passes, each
// pass to a fresh service, until the window has elapsed and at least one
// pass is whole; the passes follow each other without a pause, so a client
// that finishes one pass starts the next while the other still serves its
// last request. cached-mix prewarms once and then cycles its sequence until
// the window ends. Output checks run after each reply's interval has been
// taken.
func measure(clk *stealClock, e *env, p *plan, length time.Duration, fails *failures) (*window, error) {
	w := &window{answers: &answers{seen: map[string]answer{}}}
	if p.cold {
		n := len(p.list)
		var (
			mu     sync.Mutex
			svcs   []*service.Server // nil once closed
			served []int             // replies per pass
			err    error
		)
		// retire closes every finished pass's service but the first pass's,
		// which stays live for the heap figure and the replay. Call it under
		// mu.
		retire := func() {
			for k := 1; k < len(svcs); k++ {
				if svcs[k] != nil && served[k] == n {
					svcs[k].Close()
					svcs[k] = nil
				}
			}
		}
		// pass returns the service of pass k, creating it on first use.
		pass := func(k int) *service.Server {
			mu.Lock()
			defer mu.Unlock()
			for len(svcs) <= k && err == nil {
				var svc *service.Server
				if svc, err = e.newService(); err == nil {
					svcs, served = append(svcs, svc), append(served, 0)
				}
			}
			if err != nil {
				return nil
			}
			return svcs[k]
		}
		tops := make([]string, n)
		gc0, cpu0, alloc0 := runtimeSample()
		w.span.start = clk.now()
		w.span.end = w.span.start + length
		w.sent = loop(clk, func(pos int) (http.Handler, *request, bool) {
			if pos >= n && clk.now() > w.span.end {
				return nil, nil, false
			}
			svc := pass(pos / n)
			if svc == nil {
				return nil, nil, false
			}
			return svc.Handler(), &p.list[pos%n], true
		}, func(pos int, r *request, rw *recorder) {
			k := pos / n
			mu.Lock()
			served[k]++
			retire()
			mu.Unlock()
			rep, err := checkReply(r, rw, "miss")
			if err != nil {
				fails.add("pass %d %s %s: %v", k, r.path, r.body, err)
				return
			}
			if k == 0 {
				tops[pos] = rep.top1()
			}
			w.answers.add(rep)
		})
		for k, svc := range svcs {
			if svc != nil && (k > 0 || err != nil) { // a pass the window cut short
				svc.Close()
			}
		}
		if err != nil {
			return nil, err
		}
		w.svc = svcs[0]
		w.first, w.replay, w.tops = w.sent[:n], p.list, tops
		gc1, cpu1, alloc1 := runtimeSample()
		w.finish(gc1-gc0, cpu1-cpu0, alloc1-alloc0)
		return w, nil
	}

	svc, err := e.newService()
	if err != nil {
		return nil, err
	}
	w.svc = svc
	h := svc.Handler()
	warmBody := make([][]byte, len(p.warm))
	warmTop := make([]string, len(p.warm))
	loop(clk, func(pos int) (http.Handler, *request, bool) {
		if pos >= len(p.warm) {
			return nil, nil, false
		}
		return h, &p.warm[pos], true
	}, func(pos int, r *request, rw *recorder) {
		warmBody[pos] = bytes.Clone(rw.body.Bytes())
		rep, err := checkReply(r, rw, "miss")
		if err != nil {
			fails.add("prewarm %s %s: %v", r.path, r.body, err)
			return
		}
		warmTop[pos] = rep.top1()
		w.answers.add(rep)
	})
	gc0, cpu0, alloc0 := runtimeSample()
	w.span.start = clk.now()
	w.span.end = w.span.start + length
	w.sent = loop(clk, func(pos int) (http.Handler, *request, bool) {
		if clk.now() > w.span.end {
			return nil, nil, false
		}
		return h, &p.list[pos%len(p.list)], true
	}, func(pos int, r *request, rw *recorder) {
		if r.method == http.MethodPost && rw.hdr.Get(cacheHeader) != "hit" {
			fails.add("%s %s: %s = %q, want hit", r.path, r.body, cacheHeader, rw.hdr.Get(cacheHeader))
		} else if !bytes.Equal(rw.body.Bytes(), warmBody[r.warm]) {
			fails.add("%s %s: reply differs from its prewarm reply", r.path, r.body)
		}
	})
	gc1, cpu1, alloc1 := runtimeSample()
	w.first, w.warm = w.sent, p.warm
	w.finish(gc1-gc0, cpu1-cpu0, alloc1-alloc0)
	n := min(len(w.sent), maxReplay)
	w.replay = make([]request, n)
	w.tops = make([]string, n)
	for i := range w.replay {
		w.replay[i] = p.list[i%len(p.list)]
		w.tops[i] = warmTop[w.replay[i].warm]
	}
	return w, nil
}

// completed counts the requests served by the window's deadline, in passes
// of the workload's list of n requests times n, so that the throughput is
// that of the workload's mix: a window that ends inside a pass would
// otherwise count more requests when the seed put the pass's cheap ones
// first. A request's share of its pass is its list entry's median latency
// over the window (lats, by position) over the sum of those medians. The
// requests in flight at the deadline count by the part of their interval
// before it, so neither where the deadline cuts a long request nor the drain
// after it moves the count.
func (w *window) completed(lats []float64, n int) float64 {
	byEntry := make([][]float64, n)
	for i, l := range lats {
		byEntry[i%n] = append(byEntry[i%n], l)
	}
	cost := make([]float64, n)
	total := 0.0
	for j, xs := range byEntry {
		cost[j] = median(xs)
		total += cost[j]
	}
	if total == 0 {
		return 0
	}
	done := 0.0
	for i, s := range w.sent {
		switch {
		case s.end <= w.span.end:
			done += cost[i%n]
		case s.start < w.span.end:
			done += cost[i%n] * float64(w.span.end-s.start) / float64(s.end-s.start)
		}
	}
	return done / total * float64(n)
}

// finish records the window's runtime figures and its live heap: HeapAlloc
// after two forced GCs (the second frees what sync.Pools kept through the
// first) with the last service still live, less the window's own
// per-reply log, whose size grows with throughput and would otherwise read
// as service memory.
func (w *window) finish(gcCPU, totalCPU, allocBytes float64) {
	if totalCPU > 0 {
		w.gcFrac = gcCPU / totalCPU
	}
	if len(w.sent) > 0 {
		w.allocKB = allocBytes / float64(len(w.sent)) / 1024
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	own := uint64(cap(w.sent)) * uint64(unsafe.Sizeof(sent{}))
	w.heapMiB = float64(ms.HeapAlloc-min(own, ms.HeapAlloc)) / (1 << 20)
	runtime.KeepAlive(w.svc)
}

// predictionError simulates each distinct served top-1 placement on the
// repository's simulator and returns the mean |predicted − simulated| /
// simulated in percent. The simulator is the reproduction's ground truth,
// not hardware.
func predictionError(ctx context.Context, e *env, a *answers) (float64, int, error) {
	list := make([]answer, 0, len(a.seen))
	for _, x := range a.seen {
		list = append(list, x)
	}
	errs := make([]float64, len(list))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(list); i += clients {
				x := list[i]
				adv := e.advisors[x.arch]
				v, err := func() (float64, error) {
					tr := kernels.MustGet(x.kernel).Trace(x.scale)
					sample, err := placement.Parse(tr, x.sample)
					if err != nil {
						return 0, err
					}
					target, err := placement.Parse(tr, x.placement)
					if err != nil {
						return 0, err
					}
					m, err := sim.New(adv.Cfg).RunContext(ctx, tr, sample, target)
					if err != nil {
						return 0, err
					}
					return math.Abs(x.predictedNS-m.TimeNS) / m.TimeNS, nil
				}()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("simulating %s %s %s: %w", x.arch, x.kernel, x.placement, err)
					}
					mu.Unlock()
					return
				}
				errs[i] = v
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, 0, firstErr
	}
	if len(errs) == 0 {
		return 0, 0, nil
	}
	sum := 0.0
	for _, v := range errs {
		sum += v
	}
	return 100 * sum / float64(len(errs)), len(errs), nil
}

// replayed is the traced replay of a window: its spans and the replayer's
// counters.
type replayed struct {
	rp      *replayer
	tracers []*tracer
}

// replayWindow replays the window's sequence layer by layer and checks that
// every replayed top-1 equals the handler's.
func replayWindow(ctx context.Context, clk *stealClock, e *env, w *window, cfg runConfig, fails *failures) (*replayed, error) {
	rp := newReplayer(clk, e, w.svc)
	if cfg.workload == cachedMix {
		// Fill the replay's own result cache the way the prewarm filled the
		// service's; only the hit sequence after it is measured.
		warmRP := newReplayer(clk, e, w.svc)
		if _, _, err := warmRP.run(ctx, w.warm); err != nil {
			return nil, err
		}
		rp.ranks, rp.fleets = warmRP.ranks, warmRP.fleets
	}
	tracers, tops, err := rp.run(ctx, w.replay)
	if err != nil {
		return nil, err
	}
	for i := range tops {
		if tops[i] != w.tops[i] {
			fails.add("replay position %d %s %s: top-1 %q, handler %q", i, w.replay[i].path, w.replay[i].body, tops[i], w.tops[i])
		}
	}
	if cfg.spansPath != "" {
		if err := writeSpans(cfg.spansPath, tracers); err != nil {
			return nil, err
		}
	}
	return &replayed{rp, tracers}, nil
}

// metrics derives the per-layer metrics from the replay's spans, each span
// taken as its wall time less the host's stolen share, like the end-to-end
// latencies. Call it after the clock has stopped.
func (r *replayed) metrics(clk *stealClock, w *window) []metric {
	rp := r.rp
	n := len(w.replay)
	var total [numLayers]float64 // ns
	var calls [numLayers]int
	var simDur []float64
	innerByReq := make([]float64, n)
	reqByReq := make([]float64, n)
	for _, tc := range r.tracers {
		for _, s := range tc.spans {
			d := float64(clk.less(time.Duration(s.start), time.Duration(s.end)))
			switch {
			case s.layer == lRequest:
				reqByReq[s.req] = d
				continue
			case s.layer.inner():
				innerByReq[s.req] += d
			}
			total[s.layer] += d
			calls[s.layer]++
			if s.layer == lSim {
				simDur = append(simDur, d/1e6)
			}
		}
	}
	var self, untraced, replayedNS float64
	posts := 0
	for i := 0; i < n; i++ {
		lat := float64(clk.less(w.first[i].start, w.first[i].end))
		untraced += lat
		replayedNS += reqByReq[i]
		self += lat - innerByReq[i]
		if w.replay[i].method == http.MethodPost {
			posts++
		}
	}
	ms := func(l layer) float64 { return total[l] / 1e6 }
	perPost := func(l layer) float64 {
		if posts == 0 {
			return 0
		}
		return total[l] / 1e3 / float64(posts)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, builds := float64(rp.rec.contribHits.Load()), float64(rp.rec.contribBuilds.Load())
	return []metric{
		{"kernels.trace_ms", ms(lKernels), "ms", calls[lKernels]},
		{"kernels.trace_calls", float64(calls[lKernels]), "count", n},
		{"sim.profile_ms", ms(lSim), "ms", calls[lSim]},
		{"sim.profile_p50_ms", quantile(simDur, 0.5), "ms", len(simDur)},
		{"sim.profile_calls", float64(rp.profile.calls), "count", n},
		{"sim.profile_repeat_frac", ratio(float64(rp.profile.repeats), float64(rp.profile.calls)), "ratio", rp.profile.calls},
		{"core.predictor_build_ms", ms(lCore), "ms", calls[lCore]},
		{"core.contrib_builds", builds, "count", n},
		{"core.contrib_hits", hits, "count", n},
		{"core.contrib_hit_ratio", ratio(hits, hits+builds), "ratio", int(hits + builds)},
		{"advisor.search_ms", ms(lAdvisor), "ms", calls[lAdvisor]},
		{"advisor.evals", float64(rp.advisor.evals), "count", calls[lAdvisor]},
		{"advisor.pruned", float64(rp.advisor.pruned), "count", calls[lAdvisor]},
		{"advisor.deduped", float64(rp.advisor.deduped), "count", calls[lAdvisor]},
		{"advisor.eval_us", ratio(ms(lAdvisor)*1e3, float64(rp.advisor.evals)), "us", rp.advisor.evals},
		{"fleet.menu_ms", ms(lFleetMenu), "ms", calls[lFleetMenu]},
		{"fleet.solve_ms", ms(lFleetSolve), "ms", calls[lFleetSolve]},
		{"fleet.menu_evals", float64(rp.fleet.menuEvals), "count", calls[lFleetMenu]},
		{"fleet.assign_evals", float64(rp.fleet.assignEvals), "count", calls[lFleetSolve]},
		{"service.decode_us", perPost(lDecode), "us", posts},
		{"service.encode_us", perPost(lEncode), "us", posts},
		{"service.self_us", ratio(self/1e3, float64(n)), "us", n},
		{"trace.overhead_frac", ratio(replayedNS, untraced) - 1, "ratio", n},
	}
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
