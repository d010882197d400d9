package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuhms/internal/obs"
)

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		in     string
		wantID string
	}{
		{valid, "4bf92f3577b34da6a3ce929d0e0e4736"},
		{"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", "4bf92f3577b34da6a3ce929d0e0e4736"},
		{"", ""},
		{"not-a-traceparent", ""},
		{strings.ToUpper(valid), ""}, // uppercase hex is invalid per spec
		{"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", ""}, // forbidden version
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", ""}, // zero trace-id
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", ""}, // zero parent-id
		{valid + "0", ""},      // wrong length
		{valid[:54] + "g", ""}, // non-hex flag
	}
	for _, tc := range cases {
		id, ok := parseTraceparent(tc.in)
		if ok != (tc.wantID != "") || id != tc.wantID {
			t.Errorf("parseTraceparent(%q) = %q, %v; want %q", tc.in, id, ok, tc.wantID)
		}
	}
}

func TestSanitizeRequestID(t *testing.T) {
	if got := sanitizeRequestID("abc-123.DEF_x"); got != "abc-123.DEF_x" {
		t.Errorf("clean id rejected: %q", got)
	}
	for _, bad := range []string{"", "has space", "newline\n", "semi;colon", strings.Repeat("a", 65)} {
		if got := sanitizeRequestID(bad); got != "" {
			t.Errorf("sanitizeRequestID(%q) = %q, want rejection", bad, got)
		}
	}
}

// TestRequestIDOnEveryResponse asserts the traceability invariant: success,
// client errors, unknown routes, and error bodies all carry the request ID.
func TestRequestIDOnEveryResponse(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()

	do := func(method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}

	// Success carries a generated 32-hex ID.
	rr := do("POST", "/v1/rank", `{"kernel":"fft","top_k":1}`, nil)
	if rr.Code != 200 {
		t.Fatalf("rank status %d: %s", rr.Code, rr.Body.String())
	}
	id := rr.Header().Get(HeaderRequestID)
	if len(id) != 32 {
		t.Fatalf("generated request id %q, want 32 hex chars", id)
	}

	// A valid traceparent's trace-id becomes the request ID.
	rr = do("POST", "/v1/rank", `{"kernel":"fft","top_k":1}`, map[string]string{
		HeaderTraceparent: "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	})
	if got := rr.Header().Get(HeaderRequestID); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("traceparent trace-id not propagated: got %q", got)
	}

	// A client-chosen X-Request-ID is echoed.
	rr = do("POST", "/v1/rank", `{"kernel":"fft","top_k":1}`, map[string]string{HeaderRequestID: "client-abc"})
	if got := rr.Header().Get(HeaderRequestID); got != "client-abc" {
		t.Fatalf("client request id not echoed: got %q", got)
	}

	// Error responses carry the header AND the id inside the body.
	rr = do("POST", "/v1/rank", `{"kernel":"nosuchkernel"}`, nil)
	if rr.Code != 400 && rr.Code != 404 {
		t.Fatalf("unknown kernel status %d", rr.Code)
	}
	id = rr.Header().Get(HeaderRequestID)
	if id == "" {
		t.Fatal("error response missing X-Request-ID header")
	}
	var er ErrorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID != id {
		t.Fatalf("error body request_id %q != header %q", er.RequestID, id)
	}

	// Mux-level 404s (no handler at all) still carry the header.
	rr = do("GET", "/no/such/route", "", nil)
	if rr.Code != 404 {
		t.Fatalf("unknown route status %d", rr.Code)
	}
	if rr.Header().Get(HeaderRequestID) == "" {
		t.Fatal("mux 404 missing X-Request-ID header")
	}
}

// TestCacheHeaderOnError asserts the cache verdict also rides on errors once
// a cache decision was made (a canceled waiter still reports hit/miss/shared).
func TestCacheHeaderOnError(t *testing.T) {
	s, m := blockingServer(t, Options{Workers: 1, QueueCap: 4})
	defer m.releaseAll()
	req := httptest.NewRequest("POST", "/v1/rank", strings.NewReader(`{"kernel":"fft","top_k":1,"timeout_ms":1}`))
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code == 200 {
		t.Fatalf("expected a deadline error, got 200")
	}
	if got := rr.Header().Get(HeaderCache); got != cacheMiss {
		t.Fatalf("X-HMS-Cache on error = %q, want %q", got, cacheMiss)
	}
}

// TestAccessLogSchema pins the access-log line's field set and JSON types:
// the schema is parsed by log consumers, so adding, renaming, or retyping a
// field is a breaking change this test makes explicit.
func TestAccessLogSchema(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Options{AccessLog: NewAccessLogger(&buf)})
	rr := doJSON(t, s, "POST", "/v1/rank", RankRequest{Kernel: "fft", TopK: 1})
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	line := buf.Bytes()
	var rec map[string]any
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, line)
	}
	// Field -> JSON type. encoding/json decodes every number as float64.
	want := map[string]string{
		"time":      "string",
		"level":     "string",
		"msg":       "string",
		"id":        "string",
		"route":     "string",
		"status":    "float64",
		"cache":     "string",
		"strategy":  "string",
		"shed":      "string",
		"dur_ns":    "float64",
		"decode_ns": "float64",
		"cache_ns":  "float64",
		"queue_ns":  "float64",
		"search_ns": "float64",
		"wait_ns":   "float64",
		"encode_ns": "float64",
	}
	for field, typ := range want {
		v, ok := rec[field]
		if !ok {
			t.Errorf("access log missing field %q\n%s", field, line)
			continue
		}
		if got := fmt.Sprintf("%T", v); got != typ {
			t.Errorf("access log field %q is %s, want %s", field, got, typ)
		}
	}
	for field := range rec {
		if _, ok := want[field]; !ok {
			t.Errorf("access log has unpinned field %q — update the schema test and docs/OBSERVABILITY.md", field)
		}
	}
	// Spot-check values.
	if rec["route"] != "rank" || rec["status"] != float64(200) || rec["cache"] != cacheMiss {
		t.Fatalf("unexpected values in %s", line)
	}
	if rec["dur_ns"].(float64) <= 0 || rec["search_ns"].(float64) <= 0 {
		t.Fatalf("stage timings not recorded: %s", line)
	}

	// Every registered route logs its own name (the per-route SLO key and
	// span name); only unregistered paths share "other". Empty POST bodies
	// are rejected at decode, which still logs the route.
	routes := []struct{ method, path, want string }{
		{"POST", "/v1/rank", "rank"},
		{"POST", "/v1/compare", "compare"},
		{"POST", "/v1/fleet/rank", "fleet"},
		{"POST", "/v1/predict", "predict"},
		{"GET", "/v1/kernels", "kernels"},
		{"GET", "/v1/arches", "arches"},
		{"GET", "/healthz", "healthz"},
		{"GET", "/readyz", "readyz"},
		{"GET", "/metrics", "metrics"},
		{"GET", "/no/such/route", "other"},
	}
	for _, r := range routes {
		buf.Reset()
		s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(r.method, r.path, strings.NewReader("{}")))
		var rec struct{ Route string }
		if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
			t.Fatalf("%s %s: access log line is not JSON: %v\n%s", r.method, r.path, err, buf.Bytes())
		}
		if rec.Route != r.want {
			t.Errorf("%s %s: access log route %q, want %q", r.method, r.path, rec.Route, r.want)
		}
	}
}

// TestSampledRequestSpans asserts a sampled request leaves a complete
// timeline: its own track with stage spans, the pool-side search span, and
// the flow arrow linking the two.
func TestSampledRequestSpans(t *testing.T) {
	s := newTestServer(t, Options{TraceSampleEvery: 1})
	rr := doJSON(t, s, "POST", "/v1/rank", RankRequest{Kernel: "fft", TopK: 1})
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	id := rr.Header().Get(HeaderRequestID)
	var trace bytes.Buffer
	if err := s.Collector().WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var wrapper struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &wrapper); err != nil {
		t.Fatal(err)
	}
	var haveReqSpan, havePoolSearch, haveFlowStart, haveFlowEnd bool
	for _, ev := range wrapper.TraceEvents {
		name, _ := ev["name"].(string)
		switch ev["ph"] {
		case "X":
			if strings.HasPrefix(name, "rank ") && strings.Contains(name, id) {
				haveReqSpan = true
			}
			if strings.HasPrefix(name, "search ") {
				havePoolSearch = true
			}
		case "s":
			haveFlowStart = name == "handoff"
		case "f":
			haveFlowEnd = name == "handoff"
		}
	}
	if !haveReqSpan || !havePoolSearch || !haveFlowStart || !haveFlowEnd {
		t.Fatalf("incomplete sampled timeline: req=%v search=%v flowStart=%v flowEnd=%v",
			haveReqSpan, havePoolSearch, haveFlowStart, haveFlowEnd)
	}
	if n := counterVal(s, obs.MetricServiceTraceSampledTotal); n < 1 {
		t.Fatalf("service_trace_sampled_total = %d, want >= 1", n)
	}
}

// TestDetachedSampledSearchSpans: a sampled request whose client leaves
// while its search is blocked still completes its timeline once the
// detached search finishes: the pool-track search span and both ends of the
// handoff flow arrow reach the exported trace, and the search stage lands on
// the request's own track.
func TestDetachedSampledSearchSpans(t *testing.T) {
	s, m := blockingServer(t, Options{Workers: 1, TraceSampleEvery: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- doJSONCtx(t, ctx, s, "POST", "/v1/rank", RankRequest{Kernel: "fft", TopK: 1}) }()
	<-m.started
	cancel()
	rr := <-done
	if rr.Code != StatusClientClosedRequest {
		t.Fatalf("canceled client got status %d, want %d", rr.Code, StatusClientClosedRequest)
	}
	m.releaseAll()

	short := rr.Header().Get(HeaderRequestID)[:8]
	poolSpan := "search " + short
	var haveStage bool
	for deadline := time.Now().Add(30 * time.Second); ; {
		var havePool bool
		for _, ev := range s.Collector().Timeline().Events() {
			if ev.Kind == obs.SpanEvent && ev.Track == trackPool && ev.Name == poolSpan {
				havePool = true
			}
			if ev.Kind == obs.SpanEvent && ev.Track == "req/"+short && ev.Name == "search" {
				haveStage = true
			}
		}
		if havePool {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("detached search never wrote its pool span %q", poolSpan)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !haveStage {
		t.Error("detached search stage missing from the request's own track")
	}

	var trace bytes.Buffer
	if err := s.Collector().WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var wrapper struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &wrapper); err != nil {
		t.Fatal(err)
	}
	var haveSearch, haveFlowStart, haveFlowEnd bool
	for _, ev := range wrapper.TraceEvents {
		name, _ := ev["name"].(string)
		switch ev["ph"] {
		case "X":
			haveSearch = haveSearch || name == poolSpan
		case "s":
			haveFlowStart = haveFlowStart || name == "handoff"
		case "f":
			haveFlowEnd = haveFlowEnd || name == "handoff"
		}
	}
	if !haveSearch || !haveFlowStart || !haveFlowEnd {
		t.Fatalf("exported trace incomplete: search=%v flowStart=%v flowEnd=%v", haveSearch, haveFlowStart, haveFlowEnd)
	}
}

// TestRequestMetricsCountAPIRoutes: the middleware's one request clock
// feeds service_requests_total and service_request_ns for the six API
// routes only, whatever their status (a decode 400 and a mux-level 405 on an
// API path count); health probes, scrapes and unknown paths do not.
func TestRequestMetricsCountAPIRoutes(t *testing.T) {
	s := newTestServer(t, Options{})
	reqs := []struct {
		method, path, body string
		api                bool
	}{
		{"POST", "/v1/rank", `{"kernel":"fft","top_k":1}`, true},
		{"POST", "/v1/compare", `{"kernel":"fft","top_k":1}`, true},
		{"POST", "/v1/fleet/rank", `{}`, true},
		{"POST", "/v1/predict", `{}`, true},
		{"GET", "/v1/kernels", "", true},
		{"GET", "/v1/arches", "", true},
		{"GET", "/v1/rank", "", true},
		{"GET", "/healthz", "", false},
		{"GET", "/readyz", "", false},
		{"GET", "/metrics", "", false},
		{"GET", "/no/such/route", "", false},
	}
	want := int64(0)
	for _, r := range reqs {
		s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
		if r.api {
			want++
		}
	}
	snap := s.Collector().Snapshot()
	if n := snap.Counter(obs.MetricServiceRequestsTotal); n != want {
		t.Errorf("%s = %d, want %d", obs.MetricServiceRequestsTotal, n, want)
	}
	if h := snap.Histogram(obs.MetricServiceRequestNS); h == nil || h.Count != want {
		t.Errorf("%s histogram %+v, want count %d", obs.MetricServiceRequestNS, h, want)
	}
}

// TestReqTraceNilSafety: every ReqTrace method must be a no-op on nil — the
// degraded path for handlers invoked without the middleware.
func TestReqTraceNilSafety(t *testing.T) {
	var rt *ReqTrace
	rt.BeginStage(StageDecode)()
	rt.SetCache("hit")
	rt.SetStrategy("greedy")
	rt.SetShed("queue_full")
	rt.setStatus(200)
	rt.emitSpans(0)
	if rt.CacheState() != "" {
		t.Fatal("nil trace reports cache state")
	}
}

// TestReqTraceRaceHammer hammers one shared ReqTrace and one shared
// Collector from many goroutines — the detached-search scenario where pool
// workers record stages and spans after the middleware already rendered the
// request. Run under -race (scripts/verify.sh does), this is the data-race
// regression net for the whole recording path.
func TestReqTraceRaceHammer(t *testing.T) {
	col := obs.NewCollector()
	req := httptest.NewRequest("POST", "/v1/rank", nil)
	rt := newReqTrace("rank", req, col, true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				end := rt.BeginStage(Stage(i % int(numStages)))
				rt.SetCache(cacheHit)
				rt.SetStrategy("greedy")
				rt.SetShed("queue_full")
				rt.setStatus(200)
				end()
				rt.emitSpans(col.Now())
				if i%16 == 0 {
					_ = rt.CacheState()
					_ = col.Snapshot() // scrape hooks race against recording
				}
			}
		}(g)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}
