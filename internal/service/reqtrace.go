package service

import (
	"context"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"sync"

	"gpuhms/internal/obs"
)

// NewAccessLogger builds the JSON access logger Options.AccessLog expects:
// one slog JSON record per request on w. cmd/hmsserved points it at the
// -access-log file; tests point it at a buffer and assert the schema.
func NewAccessLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// Wire headers of the request-tracing layer (docs/OBSERVABILITY.md).
const (
	// HeaderRequestID carries the request's ID on every response — success,
	// error, and shed alike — so a client can quote the exact server-side
	// identity of a 429 or 504 when correlating with access logs and traces.
	HeaderRequestID = "X-Request-ID"
	// HeaderTraceparent is the W3C trace-context header (traceparent). When
	// a request carries a valid one, its trace-id becomes the request ID,
	// so the service's logs and spans join the caller's distributed trace.
	HeaderTraceparent = "traceparent"
	// HeaderCache reports the cache outcome (hit/miss/shared) of a rank
	// request, on errors too once a cache decision was made.
	HeaderCache = "X-HMS-Cache"
)

// Stage indexes one phase of a request's per-stage timeline.
type Stage int

const (
	// StageDecode is body read + JSON decode + validation.
	StageDecode Stage = iota
	// StageCache is the result-cache lookup / singleflight election.
	StageCache
	// StageQueue is submit-to-pickup time in the worker pool (leader only).
	StageQueue
	// StageSearch is the advisor search on the worker (leader only).
	StageSearch
	// StageWait is the handler's wait for the flight result.
	StageWait
	// StageEncode is response encode + write.
	StageEncode

	numStages
)

// stageNames are the span names and the access-log field stems, in Stage
// order. The access-log schema test pins them.
var stageNames = [numStages]string{"decode", "cache", "queue", "search", "wait", "encode"}

// ReqTrace is one request's identity and per-stage timeline. The tracing
// middleware creates it, stores it in the request context, and renders it
// into an access-log line (every request) when the handler returns; a
// sampled request's Chrome-trace spans are written as each stage ends.
// Handlers and pool closures record stages into it concurrently — a
// detached search keeps writing its stage after an abandoned client's
// middleware already logged — so all mutation is mutex-guarded. Every method is nil-receiver-safe: code paths reached
// without the middleware (direct handler calls in tests) degrade to no
// tracing instead of panicking.
type ReqTrace struct {
	// ID identifies the request: the trace-id of a valid incoming
	// traceparent, the client's own X-Request-ID (sanitized), or a fresh
	// random 32-hex ID.
	ID string
	// Traceparent is the propagated W3C header; empty when ID was locally
	// generated or client-supplied.
	Traceparent string
	// Route is the short route name ("rank", "predict", "healthz", ...).
	Route string

	sampled bool
	flowID  uint64
	startNS float64
	col     *obs.Collector // clock and span sink

	mu       sync.Mutex
	stageNS  [numStages]float64 // each stage's duration
	cache    string
	strategy string
	shed     string
	status   int
}

type traceCtxKey struct{}

// withTrace stores rt in ctx.
func withTrace(ctx context.Context, rt *ReqTrace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, rt)
}

// TraceFrom returns the request's ReqTrace, or nil outside the tracing
// middleware.
func TraceFrom(ctx context.Context) *ReqTrace {
	rt, _ := ctx.Value(traceCtxKey{}).(*ReqTrace)
	return rt
}

// newReqTrace builds the trace of one incoming request: ID extraction /
// generation and the flow ID that links its pool handoff arrows.
func newReqTrace(route string, r *http.Request, col *obs.Collector, sampled bool) *ReqTrace {
	rt := &ReqTrace{Route: route, sampled: sampled, col: col, startNS: col.Now()}
	if tp := r.Header.Get(HeaderTraceparent); tp != "" {
		if traceID, ok := parseTraceparent(tp); ok {
			rt.ID, rt.Traceparent = traceID, tp
		}
	}
	if rt.ID == "" {
		if id := sanitizeRequestID(r.Header.Get(HeaderRequestID)); id != "" {
			rt.ID = id
		} else {
			rt.ID = newRequestID()
		}
	}
	rt.flowID = fnv64(rt.ID)
	return rt
}

// newRequestID generates a 32-hex (128-bit) request ID. math/rand/v2's
// global source is ChaCha8-based and randomly seeded per process — cheap
// enough for the hot path, unique enough for log correlation.
func newRequestID() string {
	var buf [32]byte
	hexEncode(buf[:16], rand.Uint64())
	hexEncode(buf[16:], rand.Uint64())
	return string(buf[:])
}

const hexDigits = "0123456789abcdef"

// hexEncode writes v as 16 lowercase hex digits into dst.
func hexEncode(dst []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

// parseTraceparent validates a W3C traceparent header
// (version-traceid-parentid-flags, lowercase hex) and extracts the 32-hex
// trace-id. Invalid headers are ignored, never an error: tracing is
// best-effort and a hostile header must not change request handling.
func parseTraceparent(h string) (traceID string, ok bool) {
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", false
	}
	ver, tid, pid, flags := h[0:2], h[3:35], h[36:52], h[53:55]
	if !isLowerHex(ver) || !isLowerHex(tid) || !isLowerHex(pid) || !isLowerHex(flags) {
		return "", false
	}
	// ff is forbidden by the spec; all-zero IDs mean "no trace".
	if ver == "ff" || allZero(tid) || allZero(pid) {
		return "", false
	}
	return tid, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// sanitizeRequestID accepts a client-chosen X-Request-ID when it is 1..64
// bytes of [A-Za-z0-9._-]; anything else (too long, control bytes, header
// injection attempts) is discarded in favor of a generated ID.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// fnv64 is FNV-1a over s: the flow ID linking a request's handoff arrows.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// shortID is the track-name prefix of the request (first 8 hex chars).
func (rt *ReqTrace) shortID() string {
	if len(rt.ID) > 8 {
		return rt.ID[:8]
	}
	return rt.ID
}

// BeginStage starts timing one stage and returns the closure that ends it.
// A sampled request writes the stage's span to its own track when the stage
// ends. The queue stage, which opens at submit and ends on the worker at
// pickup, also draws the handoff flow arrow from the request track to the
// pool track; the search stage, which runs on the worker, also writes the
// pool-track span the arrow lands on. Spans written as each stage ends reach
// the timeline even when the client left before a detached search finished.
func (rt *ReqTrace) BeginStage(s Stage) func() {
	if rt == nil {
		return func() {}
	}
	start := rt.col.Now()
	return func() {
		end := rt.col.Now()
		rt.mu.Lock()
		rt.stageNS[s] = end - start
		rt.mu.Unlock()
		if !rt.sampled {
			return
		}
		track := rt.trackName()
		rt.col.Span(track, stageNames[s], start, end-start)
		switch s {
		case StageQueue:
			rt.col.Timeline().FlowStart(track, "handoff", rt.flowID, start)
			rt.col.Timeline().FlowEnd(trackPool, "handoff", rt.flowID, end)
		case StageSearch:
			rt.col.Span(trackPool, "search "+rt.shortID(), start, end-start)
		}
	}
}

// SetCache records the cache outcome (hit/miss/shared).
func (rt *ReqTrace) SetCache(state string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.cache = state
	rt.mu.Unlock()
}

// CacheState returns the recorded cache outcome.
func (rt *ReqTrace) CacheState() string {
	if rt == nil {
		return ""
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.cache
}

// SetStrategy records the effective search strategy.
func (rt *ReqTrace) SetStrategy(strategy string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.strategy = strategy
	rt.mu.Unlock()
}

// SetShed records why a request was shed (queue_full, shed_deadline,
// shutting_down) for the access log.
func (rt *ReqTrace) SetShed(reason string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.shed = reason
	rt.mu.Unlock()
}

// setStatus records the response status (written by the middleware's
// status-capturing writer).
func (rt *ReqTrace) setStatus(status int) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.status = status
	rt.mu.Unlock()
}

// Timeline track names. Sampled requests each get their own
// "req/<shortID>" track (a per-request swimlane in Perfetto); pool-side
// search spans share the "pool" track, linked back by flow arrows.
const trackPool = "pool"

// trackName is the sampled request's own track.
func (rt *ReqTrace) trackName() string { return "req/" + rt.shortID() }

// emitSpans closes a sampled request's timeline with its whole-request
// span; the stage spans were written as each stage ended. Runs once, from
// the middleware, when the handler returns.
func (rt *ReqTrace) emitSpans(endNS float64) {
	if rt == nil || !rt.sampled {
		return
	}
	rt.col.Add(obs.MetricServiceTraceSampledTotal, 1)
	rt.col.Span(rt.trackName(), rt.Route+" "+rt.ID, rt.startNS, endNS-rt.startNS)
}

// snapshotLog copies the fields the access-log line needs in one lock.
func (rt *ReqTrace) snapshotLog() (stageNS [numStages]float64, cache, strategy, shed string, status int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.stageNS, rt.cache, rt.strategy, rt.shed, rt.status
}

// logAccess emits the one-line JSON access log record of a finished
// request. The field set and types are pinned by TestAccessLogSchema —
// log consumers parse these lines, so the schema is an API.
func (s *Server) logAccess(rt *ReqTrace, durNS int64) {
	lg := s.opt.AccessLog
	if lg == nil || rt == nil {
		return
	}
	stageNS, cache, strategy, shed, status := rt.snapshotLog()
	lg.LogAttrs(context.Background(), slog.LevelInfo, "request",
		slog.String("id", rt.ID),
		slog.String("route", rt.Route),
		slog.Int("status", status),
		slog.String("cache", cache),
		slog.String("strategy", strategy),
		slog.String("shed", shed),
		slog.Int64("dur_ns", durNS),
		slog.Int64("decode_ns", int64(stageNS[StageDecode])),
		slog.Int64("cache_ns", int64(stageNS[StageCache])),
		slog.Int64("queue_ns", int64(stageNS[StageQueue])),
		slog.Int64("search_ns", int64(stageNS[StageSearch])),
		slog.Int64("wait_ns", int64(stageNS[StageWait])),
		slog.Int64("encode_ns", int64(stageNS[StageEncode])),
	)
}

// statusWriter captures the response status for the middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// routeName maps a request path onto its short route name for logs, SLO
// keys, and span names, and reports whether it is an API route: one the
// request counter and latency histogram cover.
func routeName(path string) (name string, api bool) {
	switch path {
	case "/v1/rank":
		return "rank", true
	case "/v1/compare":
		return "compare", true
	case "/v1/fleet/rank":
		return "fleet", true
	case "/v1/predict":
		return "predict", true
	case "/v1/kernels":
		return "kernels", true
	case "/v1/arches":
		return "arches", true
	case "/healthz":
		return "healthz", false
	case "/readyz":
		return "readyz", false
	case "/metrics":
		return "metrics", false
	default:
		return "other", false
	}
}

// traceMiddleware wraps the whole API: it mints the request identity
// before any handler runs (so even a 404/405 from the mux carries
// X-Request-ID), threads the ReqTrace through the context, and times the
// request once on the collector clock when the handler returns. That one
// measurement feeds the access-log line, the SLO sample, the (API routes
// only) request counter, latency histogram and 500 counter, and, for every
// TraceSampleEvery-th request, the whole-request span.
func (s *Server) traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq := s.reqSeq.Add(1)
		sampled := s.opt.TraceSampleEvery > 0 && seq%int64(s.opt.TraceSampleEvery) == 0
		route, api := routeName(r.URL.Path)
		rt := newReqTrace(route, r, s.col, sampled)
		w.Header().Set(HeaderRequestID, rt.ID)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(withTrace(r.Context(), rt)))
		endNS := s.col.Now()
		if sw.code == 0 {
			sw.code = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		rt.setStatus(sw.code)
		durNS := int64(endNS - rt.startNS)
		if api {
			s.col.Add(obs.MetricServiceRequestsTotal, 1)
			s.col.Observe(obs.MetricServiceRequestNS, float64(durNS))
			// 503/504/499 are flow-control outcomes (shedding, deadlines,
			// departed clients); only genuine server faults count as errors.
			if sw.code == http.StatusInternalServerError {
				s.col.Add(obs.MetricServiceErrorsTotal, 1)
			}
		}
		if s.slo != nil {
			s.slo.Record(rt.Route, rt.CacheState(), float64(durNS), sw.code < 500)
		}
		s.logAccess(rt, durNS)
		rt.emitSpans(endNS)
	})
}
