package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gpuhms/internal/advisor"
	"gpuhms/internal/core"
	"gpuhms/internal/fleet"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/kernels"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
	"gpuhms/internal/service"
	"gpuhms/internal/sim"
	"gpuhms/internal/trace"
)

// layer names a span: a request root, or one call into a layer's public
// entry point made by the replay.
type layer uint8

const (
	lRequest layer = iota
	lDecode
	lLookup
	lKernels
	lSim
	lCore
	lAdvisor
	lFleetMenu
	lFleetSolve
	lEncode
	numLayers
)

var layerNames = [numLayers]string{
	"request", "service.decode", "service.lookup", "kernels.trace", "sim.profile",
	"core.predictor", "advisor.search", "fleet.menu", "fleet.solve", "service.encode",
}

// inner reports whether l is a layer below the service, whose time the
// service's self time excludes.
func (l layer) inner() bool { return l >= lKernels && l <= lFleetSolve }

// span is one recorded interval, in nanoseconds since the replay began.
type span struct {
	start, end int64
	req        int32 // request position in the replayed sequence
	parent     int32 // index of the parent span in the same tracer; -1 for a root
	layer      layer
}

// tracer is one replay client's in-memory span buffer.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(l layer, req, parent int32) int32 {
	t.spans = append(t.spans, span{start: int64(time.Since(t.t0)), req: req, parent: parent, layer: l})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.t0)) }

// countRec is the obs.Recorder handed to each replayed predictor and fleet
// solve: it keeps the contribution-cache counters the core layer already
// emits and drops everything else.
type countRec struct {
	contribHits, contribBuilds atomic.Int64
}

func (r *countRec) Enabled() bool { return true }
func (r *countRec) Now() float64  { return 0 }
func (r *countRec) Add(name string, d int64) {
	switch name {
	case "model_contrib_cache_hits_total":
		r.contribHits.Add(d)
	case "model_contrib_builds_total":
		r.contribBuilds.Add(d)
	}
}
func (r *countRec) Gauge(string, float64)                 {}
func (r *countRec) Observe(string, float64)               {}
func (r *countRec) Span(string, string, float64, float64) {}
func (r *countRec) Instant(string, string, float64)       {}
func (r *countRec) ReportProgress(obs.Progress)           {}

// replayer re-executes a request sequence by calling each layer's public
// entry point in the order the service does, with its own result cache in
// place of the service's. It adds no tracing inside the program.
type replayer struct {
	e   *env
	get http.Handler // GET replies are pure service code: replayed through the service's handler
	t0  time.Time
	rec countRec

	mu      sync.Mutex
	ranks   map[string]*service.RankResponse
	fleets  map[string]*service.FleetRankResponse
	seen    map[string]bool
	profile struct{ calls, repeats int }
	advisor struct{ evals, pruned, deduped int }
	fleet   struct{ menuEvals, assignEvals int }
}

// newReplayer times its spans on clk's time base.
func newReplayer(clk *stealClock, e *env, svc *service.Server) *replayer {
	return &replayer{
		e: e, get: svc.Handler(), t0: clk.epoch,
		ranks:  map[string]*service.RankResponse{},
		fleets: map[string]*service.FleetRankResponse{},
		seen:   map[string]bool{},
	}
}

// run replays list on the closed loop's client count, each client taking the
// next position, and returns the per-client span buffers and the top-1
// summary of every reply.
func (rp *replayer) run(ctx context.Context, list []request) ([]*tracer, []string, error) {
	n := len(list)
	var next atomic.Int64
	tops := make([]string, n)
	tracers := make([]*tracer, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		tracers[c] = &tracer{t0: rp.t0}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tc := tracers[c]
			for {
				pos := int(next.Add(1) - 1)
				if pos >= n {
					return
				}
				body, err := rp.one(ctx, tc, int32(pos), &list[pos])
				if err == nil {
					var rep *reply
					if rep, err = decodeReply(list[pos].kind, body); err == nil {
						tops[pos] = rep.top1()
					}
				}
				if err != nil {
					errs[c] = fmt.Errorf("replaying %s %s: %w", list[pos].path, list[pos].body, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return tracers, tops, errors.Join(errs...)
}

// one replays a single request under a root span and returns the encoded
// reply.
func (rp *replayer) one(ctx context.Context, tc *tracer, pos int32, r *request) ([]byte, error) {
	root := tc.begin(lRequest, pos, -1)
	defer tc.end(root)
	var resp any
	var err error
	switch r.kind {
	case kindRank:
		resp, err = rp.rank(ctx, tc, pos, root, r.body)
	case kindCompare:
		resp, err = rp.compare(ctx, tc, pos, root, r.body)
	case kindFleet:
		resp, err = rp.fleetRank(ctx, tc, pos, root, r.body)
	default:
		w := &recorder{}
		w.reset()
		rp.get.ServeHTTP(w, httpRequest(r))
		if w.status != http.StatusOK {
			return nil, fmt.Errorf("status %d", w.status)
		}
		return w.body.Bytes(), nil
	}
	if err != nil {
		return nil, err
	}
	sp := tc.begin(lEncode, pos, root)
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(resp) // the service's writeJSON encoding
	tc.end(sp)
	return buf.Bytes(), err
}

// rank mirrors handleRank → doRank: decode, server defaults, cache lookup,
// and on a miss the computation of runRank.
func (rp *replayer) rank(ctx context.Context, tc *tracer, pos, root int32, body []byte) (*service.RankResponse, error) {
	sp := tc.begin(lDecode, pos, root)
	req, err := service.DecodeRankRequest(body)
	tc.end(sp)
	if err != nil {
		return nil, err
	}
	if req.Arch == "" {
		req.Arch = "k80"
	}
	if req.Strategy == "" {
		req.Strategy = "exhaustive"
	}
	return rp.rankCached(ctx, tc, pos, root, req)
}

func (rp *replayer) rankCached(ctx context.Context, tc *tracer, pos, root int32, req *service.RankRequest) (*service.RankResponse, error) {
	sp := tc.begin(lLookup, pos, root)
	key := service.RankKey(req)
	rp.mu.Lock()
	resp, ok := rp.ranks[key]
	rp.mu.Unlock()
	tc.end(sp)
	if ok {
		return resp, nil
	}
	resp, err := rp.rankMiss(ctx, tc, pos, root, req)
	if err != nil {
		return nil, err
	}
	rp.mu.Lock()
	rp.ranks[key] = resp
	rp.mu.Unlock()
	return resp, nil
}

// rankMiss is Server.runRank unrolled into its layer calls: resolve the
// kernel (kernels), profile the sample (sim), build the predictor (core),
// search (advisor), and convert to wire rows (service encode).
func (rp *replayer) rankMiss(ctx context.Context, tc *tracer, pos, root int32, req *service.RankRequest) (*service.RankResponse, error) {
	adv, ok := rp.e.advisors[req.Arch]
	if !ok {
		return nil, fmt.Errorf("no advisor for %q", req.Arch)
	}
	sp := tc.begin(lKernels, pos, root)
	tr, sample, err := resolve(adv.Cfg, req.Kernel, req.Scale, req.Sample)
	tc.end(sp)
	if err != nil {
		return nil, err
	}
	rp.noteProfile(fmt.Sprintf("%s|%s|%d|%s", req.Arch, req.Kernel, req.Scale, req.Sample))

	sp = tc.begin(lSim, pos, root)
	prof, err := sim.New(adv.Cfg).RunContext(ctx, tr, sample, sample)
	tc.end(sp)
	if err != nil {
		return nil, err
	}

	sp = tc.begin(lCore, pos, root)
	pr, err := core.NewPredictor(adv.Model, tr, sample, core.SampleProfile{TimeNS: prof.TimeNS, Events: prof.Events})
	tc.end(sp)
	if err != nil {
		return nil, err
	}
	pr.SetRecorder(&rp.rec)

	strat, err := advisor.ParseStrategy(req.Strategy)
	if err != nil {
		return nil, err
	}
	sp = tc.begin(lAdvisor, pos, root)
	res, err := advisor.Search(ctx, adv.Cfg, tr, pr, advisor.RankOptions{
		TopK:          req.TopK,
		MaxCandidates: req.MaxCandidates,
		Parallelism:   parallelism(req.Parallelism),
		Strategy:      strat,
	}, nil) // the service searches with the advisor's nil recorder
	tc.end(sp)
	resp := &service.RankResponse{Arch: req.Arch, Kernel: req.Kernel, Scale: req.Scale, Sample: sample.Format(tr)}
	if err != nil {
		if !errors.Is(err, hmserr.ErrBudgetExceeded) {
			return nil, err
		}
		resp.Partial = true
	}
	if res == nil {
		return resp, nil
	}
	rp.mu.Lock()
	rp.advisor.evals += res.Evaluated
	rp.advisor.pruned += res.Pruned
	rp.advisor.deduped += res.Deduped
	rp.mu.Unlock()
	if resp.Partial || res.Strategy != "exhaustive" {
		resp.Coverage = &service.Coverage{Evaluated: res.Evaluated, Total: res.Total, Strategy: res.Strategy, Pruned: res.Pruned}
	}
	sp = tc.begin(lEncode, pos, root)
	resp.Ranked = service.BuildRanked(tr, sample, res.Ranked)
	tc.end(sp)
	return resp, nil
}

// resolve is the kernels-layer step of a search: generate the trace, pick
// and check the sample placement, and validate the trace as the advisor does
// before profiling.
func resolve(cfg *gpu.Config, kernel string, scale int, sampleSpec string) (*trace.Trace, *placement.Placement, error) {
	spec, ok := kernels.Get(kernel)
	if !ok {
		return nil, nil, fmt.Errorf("unknown kernel %q", kernel)
	}
	tr := spec.Trace(scale)
	var sample *placement.Placement
	var err error
	if sampleSpec != "" {
		sample, err = placement.Parse(tr, sampleSpec)
	} else {
		sample, err = spec.SamplePlacement(tr)
	}
	if err == nil {
		err = placement.Check(tr, sample, cfg)
	}
	if err == nil {
		err = tr.Validate()
	}
	return tr, sample, err
}

// parallelism mirrors the service: the request's value, else the server's.
func parallelism(req int) int {
	if req > 0 {
		return req
	}
	return serviceOptions.Parallelism
}

func (rp *replayer) noteProfile(key string) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.profile.calls++
	if rp.seen[key] {
		rp.profile.repeats++
	}
	rp.seen[key] = true
}

// compare mirrors handleCompare → doCompare: one cached sub-ranking per arch,
// in request order.
func (rp *replayer) compare(ctx context.Context, tc *tracer, pos, root int32, body []byte) (*service.CompareResponse, error) {
	sp := tc.begin(lDecode, pos, root)
	req, err := service.DecodeCompareRequest(body)
	tc.end(sp)
	if err != nil {
		return nil, err
	}
	if req.Strategy == "" {
		req.Strategy = "exhaustive"
	}
	archs := req.Arches
	if len(archs) == 0 {
		archs = sortedArches()
	}
	resp := &service.CompareResponse{Kernel: req.Kernel, Scale: req.Scale}
	for _, a := range archs {
		rr, err := rp.rankCached(ctx, tc, pos, root, &service.RankRequest{
			Arch: a, Kernel: req.Kernel, Scale: req.Scale, Sample: req.Sample, TopK: req.TopK,
			MaxCandidates: req.MaxCandidates, Parallelism: req.Parallelism, Strategy: req.Strategy,
			TimeoutMS: req.TimeoutMS,
		})
		if err != nil {
			return nil, fmt.Errorf("arch %q: %w", a, err)
		}
		resp.Results = append(resp.Results, service.CompareArchResult{
			Arch: a, Sample: rr.Sample, Ranked: rr.Ranked, Partial: rr.Partial, Coverage: rr.Coverage,
		})
		resp.Partial = resp.Partial || rr.Partial
	}
	return resp, nil
}

// fleetRank mirrors handleFleetRank → doFleet → runFleet: decode, defaults,
// cache lookup, and on a miss fleet.NewProblem then Problem.Solve.
func (rp *replayer) fleetRank(ctx context.Context, tc *tracer, pos, root int32, body []byte) (*service.FleetRankResponse, error) {
	sp := tc.begin(lDecode, pos, root)
	req, err := service.DecodeFleetRequest(body)
	tc.end(sp)
	if err != nil {
		return nil, err
	}
	if req.Arch == "" {
		req.Arch = "k80"
	}
	if req.Solver == "" {
		req.Solver = "greedy"
	}
	sp = tc.begin(lLookup, pos, root)
	key := service.FleetKey(req)
	rp.mu.Lock()
	resp, ok := rp.fleets[key]
	rp.mu.Unlock()
	tc.end(sp)
	if ok {
		return resp, nil
	}

	adv, ok := rp.e.advisors[req.Arch]
	if !ok {
		return nil, fmt.Errorf("no advisor for %q", req.Arch)
	}
	tenants := make([]fleet.Tenant, len(req.Tenants))
	for i, t := range req.Tenants {
		tenants[i] = fleet.Tenant{Name: t.Name, Kernel: t.Kernel, Scale: t.Scale, Sample: t.Sample, Weight: t.Weight}
	}
	budgets := fleet.DefaultBudgets(adv.Cfg)
	for name, v := range req.Budgets {
		s, err := gpu.ParseSpace(name)
		if err != nil {
			return nil, err
		}
		budgets[s] = v
	}
	objective, err := fleet.ParseObjective(req.Objective)
	if err != nil {
		return nil, err
	}
	solver, err := fleet.ParseSolver(req.Solver)
	if err != nil {
		return nil, err
	}
	sp = tc.begin(lFleetMenu, pos, root)
	prob, err := fleet.NewProblem(ctx, adv, tenants, fleet.Options{
		Budgets:       &budgets,
		Objective:     objective,
		MenuSize:      req.MenuSize,
		MaxCandidates: req.MaxCandidates,
		Parallelism:   parallelism(req.Parallelism),
		Solver:        solver,
		Recorder:      &rp.rec,
	})
	tc.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tc.begin(lFleetSolve, pos, root)
	res, err := prob.Solve(ctx, solver, &rp.rec)
	tc.end(sp)
	if err != nil {
		return nil, err
	}
	rp.mu.Lock()
	rp.fleet.menuEvals += res.MenuEvaluated
	rp.fleet.assignEvals += res.AssignEvaluated
	rp.mu.Unlock()
	sp = tc.begin(lEncode, pos, root)
	resp = service.BuildFleetResponse(req.Arch, res)
	tc.end(sp)
	rp.mu.Lock()
	rp.fleets[key] = resp
	rp.mu.Unlock()
	return resp, nil
}

// writeSpans writes every span as one JSON line, ids global across clients.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	base := 0
	for c, tc := range tracers {
		for i, s := range tc.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			if err := enc.Encode(struct {
				ID      int    `json:"id"`
				Parent  int    `json:"parent"`
				Req     int32  `json:"req"`
				Client  int    `json:"client"`
				Name    string `json:"name"`
				StartNS int64  `json:"start_ns"`
				EndNS   int64  `json:"end_ns"`
			}{base + i, parent, s.req, c, layerNames[s.layer], s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
		base += len(tc.spans)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
