package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"gpuhms/internal/hmserr"
	"gpuhms/internal/kernels"
	"gpuhms/internal/obs"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/rank        rank the legal placements of a kernel (cached)
//	POST /v1/compare     rank one kernel across several architectures in a
//	                     single call (per-arch searches share the rank cache;
//	                     docs/ARCHES.md)
//	POST /v1/fleet/rank  place N tenant kernels under capacity budgets
//	                     (cached; docs/FLEET.md)
//	POST /v1/predict     predict one target placement
//	GET  /v1/kernels     list the bundled workloads
//	GET  /v1/arches      list the warm architectures with capacity tables
//	GET  /healthz        liveness + warm architectures
//	GET  /readyz         readiness: 503 until advisors are trained and any
//	                     snapshot restore has finished (MarkReady)
//	GET  /metrics        Prometheus text exposition of the obs registry
//
// Every response body is JSON; non-2xx bodies are ErrorResponse. See
// docs/SERVICE.md for the status-code mapping.
//
// The whole mux is wrapped in the tracing middleware (reqtrace.go), so
// every response — including mux-level 404/405 — carries X-Request-ID and
// produces an access-log line when access logging is configured. The
// handler is built once, by New.
func (s *Server) Handler() http.Handler { return s.handler }

// newHandler builds the mux of Handler's routes inside the tracing
// middleware.
func (s *Server) newHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/rank", servePOST(s, DecodeRankRequest, s.rank))
	mux.HandleFunc("POST /v1/compare", servePOST(s, DecodeCompareRequest, s.compare))
	mux.HandleFunc("POST /v1/fleet/rank", servePOST(s, DecodeFleetRequest, s.fleetRank))
	mux.HandleFunc("POST /v1/predict", servePOST(s, DecodePredictRequest, s.predict))
	mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	mux.HandleFunc("GET /v1/arches", s.handleArches)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.traceMiddleware(mux)
}

// writeJSON writes one JSON response. The encoding of a given value is
// deterministic, so cached rank responses stay byte-identical to the
// search that produced them.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError maps err onto its status (attaching backpressure headers) and
// writes the ErrorResponse body, echoing the request ID into it. Shed
// responses (429, 503) carry a queue-depth-derived, full-jitter Retry-After
// so a synchronized herd of retries decorrelates; shed reasons land in the
// access log via SetShed.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	rt := TraceFrom(r.Context())
	status := statusOf(err)
	code := codeOf(err)
	switch code {
	case "queue_full", "shed_deadline", "shutting_down":
		rt.SetShed(code)
	}
	if status == http.StatusTooManyRequests {
		s.col.Add(obs.MetricServiceRejectedTotal, 1)
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	}
	body := ErrorResponse{Error: err.Error(), Code: code}
	if rt != nil {
		body.RequestID = rt.ID
	}
	writeJSON(w, status, body)
}

// readBody drains a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		return nil, badf("reading body: %v", err)
	}
	return body, nil
}

// partialer is implemented by the responses that may be budget-truncated.
type partialer interface{ partial() bool }

func (r *RankResponse) partial() bool    { return r.Partial }
func (r *CompareResponse) partial() bool { return r.Partial }

// servePOST is the skeleton of every POST route: read and decode the body
// (the decode stage), run the route's own logic, set X-HMS-Cache whenever a
// cache decision was made (on errors too: a 504 that joined a shared flight
// and a 504 that led its own search triage differently), and write 200 — or
// 206 for a budget-truncated answer — as the encode stage.
func servePOST[Req, Resp any](s *Server, decode func([]byte) (*Req, error),
	serve func(ctx context.Context, req *Req) (Resp, string, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt := TraceFrom(r.Context())
		endDecode := rt.BeginStage(StageDecode)
		body, err := readBody(w, r)
		var req *Req
		if err == nil {
			req, err = decode(body)
		}
		endDecode()
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		resp, outcome, err := serve(r.Context(), req)
		if outcome != "" {
			w.Header().Set(HeaderCache, outcome)
		}
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		status := http.StatusOK
		if p, ok := any(resp).(partialer); ok && p.partial() {
			status = http.StatusPartialContent
		}
		endEncode := rt.BeginStage(StageEncode)
		writeJSON(w, status, resp)
		endEncode()
	}
}

// rank serves POST /v1/rank: advisor lookup → default strategy → kernel
// check → cache / singleflight / pool.
func (s *Server) rank(ctx context.Context, req *RankRequest) (*RankResponse, string, error) {
	adv, arch, err := s.advisorFor(req.Arch)
	if err != nil {
		return nil, "", err
	}
	req.Arch = arch // normalize before keying the cache
	if req.Strategy == "" {
		// Apply the server's default strategy before keying the cache, so
		// an explicit "exhaustive" and an empty field share one entry.
		req.Strategy = s.opt.DefaultStrategy
	}
	TraceFrom(ctx).SetStrategy(req.Strategy)
	if _, ok := kernels.Get(req.Kernel); !ok {
		return nil, "", badKernel(req.Kernel)
	}
	return s.doRank(ctx, adv, req)
}

// compare serves POST /v1/compare: default strategy → kernel check →
// per-arch fan-out through doRank (each sub-search flows through the rank
// cache, singleflight, and worker pool exactly as a standalone /v1/rank
// would).
func (s *Server) compare(ctx context.Context, req *CompareRequest) (*CompareResponse, string, error) {
	if req.Strategy == "" {
		req.Strategy = s.opt.DefaultStrategy
	}
	TraceFrom(ctx).SetStrategy(req.Strategy)
	if _, ok := kernels.Get(req.Kernel); !ok {
		return nil, "", badKernel(req.Kernel)
	}
	return s.doCompare(ctx, req)
}

// handleArches serves GET /v1/arches: the warm architectures with their
// per-space capacity tables, sorted by name.
func (s *Server) handleArches(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.archInfos())
}

// badKernel wraps an unknown kernel name.
func badKernel(name string) error { return hmserr.Wrap(hmserr.ErrUnknownKernel, "%s", name) }

// predict serves POST /v1/predict: advisor lookup → kernel check → pool (no
// cache: a single prediction is dominated by the sample profiling run, which
// repeats per request by design — rank with top_k=1 for the cached path).
func (s *Server) predict(ctx context.Context, req *PredictRequest) (*PredictResponse, string, error) {
	adv, arch, err := s.advisorFor(req.Arch)
	if err != nil {
		return nil, "", err
	}
	req.Arch = arch
	if _, ok := kernels.Get(req.Kernel); !ok {
		return nil, "", badKernel(req.Kernel)
	}
	fl := newFlight[*PredictResponse]()
	submit(s, TraceFrom(ctx), req.TimeoutMS, func(ctx context.Context) (*PredictResponse, error) {
		return s.runPredict(ctx, adv, req)
	}, fl.finish)
	resp, err := fl.wait(ctx)
	return resp, "", err
}

// handleKernels serves GET /v1/kernels.
func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	resp := KernelsResponse{}
	for _, name := range kernels.Names() {
		spec := kernels.MustGet(name)
		resp.Kernels = append(resp.Kernels, KernelInfo{
			Name:        spec.Name,
			Suite:       spec.Suite,
			KernelName:  spec.KernelName,
			Sample:      spec.Sample,
			Description: spec.Description,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:  "ok",
		Archs:   s.archs,
		UptimeS: time.Since(s.start).Seconds(),
	})
}

// handleReadyz serves GET /readyz: 200 once the server is ready to take
// traffic (advisors trained, snapshot restored), 503 with a jittered
// Retry-After before that. Distinct from /healthz, which reports liveness
// and stays 200 throughout warmup.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{
			Ready:  false,
			Reason: "warming: advisors training or snapshot restore in progress",
		})
		return
	}
	writeJSON(w, http.StatusOK, ReadyResponse{Ready: true, Archs: s.archs})
}

// handleMetrics serves GET /metrics in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.col.WriteMetricsText(w)
}
