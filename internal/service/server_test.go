package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuhms/internal/advisor"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
	"gpuhms/internal/sim"
	"gpuhms/internal/trace"
)

// Training the advisor takes ~1.5s; every test shares one. The Advisor is
// documented safe for concurrent use, which is exactly the service's
// operating mode.
var (
	advOnce   sync.Once
	sharedAdv *advisor.Advisor
	advErr    error
)

func testAdvisor(t testing.TB) *advisor.Advisor {
	t.Helper()
	advOnce.Do(func() { sharedAdv, advErr = advisor.New(gpu.MustLookup("k80")) })
	if advErr != nil {
		t.Fatalf("training advisor: %v", advErr)
	}
	return sharedAdv
}

// newTestServer builds a server over the shared advisor.
func newTestServer(t testing.TB, opt Options) *Server {
	t.Helper()
	s, err := New(map[string]*advisor.Advisor{"k80": testAdvisor(t)}, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// blockingMeasurer blocks every profiling run until release is closed (or
// the run's context ends), then delegates to a real simulator. It makes
// deadline, backpressure, and shutdown behavior deterministic.
type blockingMeasurer struct {
	cfg     *gpu.Config
	started chan struct{} // one tick per run that began
	release chan struct{}
}

func newBlockingMeasurer(cfg *gpu.Config) *blockingMeasurer {
	return &blockingMeasurer{cfg: cfg, started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (m *blockingMeasurer) Run(t *trace.Trace, sample, target *placement.Placement) (*sim.Measurement, error) {
	return m.RunContext(context.Background(), t, sample, target)
}

func (m *blockingMeasurer) RunContext(ctx context.Context, t *trace.Trace, sample, target *placement.Placement) (*sim.Measurement, error) {
	select {
	case m.started <- struct{}{}:
	default:
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-m.release:
		return sim.New(m.cfg).RunContext(ctx, t, sample, target)
	}
}

// blockingServer builds a server whose advisor blocks in the profiling run.
func blockingServer(t testing.TB, opt Options) (*Server, *blockingMeasurer) {
	t.Helper()
	base := testAdvisor(t)
	m := newBlockingMeasurer(base.Cfg)
	adv := &advisor.Advisor{Cfg: base.Cfg, Model: base.Model, Measurer: m}
	s, err := New(map[string]*advisor.Advisor{"k80": adv}, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.releaseAll()
		s.Close()
	})
	return s, m
}

// releaseAll unblocks every current and future run (idempotent).
func (m *blockingMeasurer) releaseAll() {
	defer func() { recover() }() // double-close across cleanup paths is fine
	close(m.release)
}

// doJSON posts a JSON body to the server's handler and returns the
// recorded response.
func doJSON(t testing.TB, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	return doJSONCtx(t, context.Background(), s, method, path, body)
}

func doJSONCtx(t testing.TB, ctx context.Context, s *Server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if raw, ok := body.(string); ok {
			buf.WriteString(raw)
		} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf).WithContext(ctx)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

func decodeRank(t testing.TB, rr *httptest.ResponseRecorder) *RankResponse {
	t.Helper()
	var resp RankResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding rank response %q: %v", rr.Body.String(), err)
	}
	return &resp
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := doJSON(t, s, "GET", "/healthz", nil)
	if rr.Code != 200 {
		t.Fatalf("healthz status %d", rr.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Archs) != 1 || h.Archs[0] != "k80" {
		t.Fatalf("healthz body %+v", h)
	}
}

func TestKernelsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := doJSON(t, s, "GET", "/v1/kernels", nil)
	if rr.Code != 200 {
		t.Fatalf("kernels status %d", rr.Code)
	}
	var resp KernelsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Kernels) < 10 {
		t.Fatalf("only %d kernels listed", len(resp.Kernels))
	}
	seen := false
	for _, k := range resp.Kernels {
		if k.Name == "matrixMul" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("matrixMul missing from /v1/kernels")
	}
}

func TestRankOK(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := doJSON(t, s, "POST", "/v1/rank", RankRequest{Kernel: "fft"})
	if rr.Code != 200 {
		t.Fatalf("rank status %d: %s", rr.Code, rr.Body.String())
	}
	if got := rr.Header().Get("X-HMS-Cache"); got != cacheMiss {
		t.Fatalf("X-HMS-Cache = %q, want %q", got, cacheMiss)
	}
	resp := decodeRank(t, rr)
	if resp.Arch != "k80" || resp.Kernel != "fft" || resp.Scale != 1 {
		t.Fatalf("echoed fields wrong: %+v", resp)
	}
	if len(resp.Ranked) == 0 {
		t.Fatal("empty ranking")
	}
	sampleRows := 0
	for i, r := range resp.Ranked {
		if r.PredictedNS <= 0 {
			t.Fatalf("row %d has non-positive prediction", i)
		}
		if i > 0 && r.PredictedNS < resp.Ranked[i-1].PredictedNS {
			t.Fatalf("ranking not ascending at row %d", i)
		}
		if r.IsSample {
			sampleRows++
			if r.SpeedupVsSample < 0.999 || r.SpeedupVsSample > 1.001 {
				t.Fatalf("sample row speedup %.3f, want 1.0", r.SpeedupVsSample)
			}
		}
	}
	if sampleRows != 1 {
		t.Fatalf("%d sample rows, want 1", sampleRows)
	}
}

func TestPredictOK(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := doJSON(t, s, "POST", "/v1/predict", PredictRequest{Kernel: "fft", Target: "smem:G"})
	if rr.Code != 200 {
		t.Fatalf("predict status %d: %s", rr.Code, rr.Body.String())
	}
	var resp PredictResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PredictedNS <= 0 {
		t.Fatalf("predicted %f ns", resp.PredictedNS)
	}
}

// TestStatusMapping drives every client-error path end to end: hostile or
// wrong requests map to 4xx, never 5xx, with the taxonomy code attached.
func TestStatusMapping(t *testing.T) {
	s := newTestServer(t, Options{})
	cases := []struct {
		name string
		body any
		want int
		code string
	}{
		{"malformed JSON", `{"kernel": `, 400, "bad_request"},
		{"empty body", ``, 400, "bad_request"},
		{"missing kernel", RankRequest{}, 400, "bad_request"},
		{"unknown kernel", RankRequest{Kernel: "no-such-kernel"}, 404, "unknown_kernel"},
		{"unknown arch", RankRequest{Kernel: "fft", Arch: "h100"}, 404, "unknown_arch"},
		{"bad sample spec", RankRequest{Kernel: "fft", Sample: "nosucharray:G"}, 400, "illegal_placement"},
		{"bad space", RankRequest{Kernel: "fft", Sample: "smem:Q"}, 400, "illegal_placement"},
		{"huge scale", RankRequest{Kernel: "fft", Scale: 1 << 30}, 400, "bad_request"},
		{"negative scale", RankRequest{Kernel: "fft", Scale: -4}, 400, "bad_request"},
		{"negative budget", RankRequest{Kernel: "fft", MaxCandidates: -1}, 400, "bad_request"},
		{"negative top_k", RankRequest{Kernel: "fft", TopK: -2}, 400, "bad_request"},
		{"negative timeout", RankRequest{Kernel: "fft", TimeoutMS: -100}, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doJSON(t, s, "POST", "/v1/rank", tc.body)
			if rr.Code != tc.want {
				t.Fatalf("status %d, want %d (body %s)", rr.Code, tc.want, rr.Body.String())
			}
			var er ErrorResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
				t.Fatalf("error body not JSON: %v", err)
			}
			if er.Code != tc.code {
				t.Fatalf("code %q, want %q", er.Code, tc.code)
			}
		})
	}
	if rr := doJSON(t, s, "GET", "/v1/rank", nil); rr.Code != 405 {
		t.Fatalf("GET /v1/rank status %d, want 405", rr.Code)
	}
}

func TestRankBudgetPartial206(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := doJSON(t, s, "POST", "/v1/rank", RankRequest{Kernel: "fft", MaxCandidates: 2})
	if rr.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", rr.Code, rr.Body.String())
	}
	resp := decodeRank(t, rr)
	if !resp.Partial || resp.Coverage == nil {
		t.Fatalf("partial metadata missing: %+v", resp)
	}
	if resp.Coverage.Evaluated != 2 || resp.Coverage.Total <= 2 {
		t.Fatalf("coverage %+v, want 2 of >2", resp.Coverage)
	}
	if len(resp.Ranked) == 0 || len(resp.Ranked) > 2 {
		t.Fatalf("%d ranked rows for a 2-candidate budget", len(resp.Ranked))
	}
}

// TestRankDeadline504 maps a search that exceeds its requested timeout_ms
// onto 504 and verifies the worker goroutines drain rather than leak.
func TestRankDeadline504(t *testing.T) {
	before := runtime.NumGoroutine()
	s, _ := blockingServer(t, Options{Workers: 2, QueueCap: 4})
	rr := doJSON(t, s, "POST", "/v1/rank", RankRequest{Kernel: "fft", TimeoutMS: 50})
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rr.Code, rr.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil || er.Code != "deadline" {
		t.Fatalf("error body %s (unmarshal %v)", rr.Body.String(), err)
	}
	// A failed search must not be negatively cached: the key is free again.
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("failed search cached (%d entries)", n)
	}
	s.Close()
	waitGoroutines(t, before)
}

// TestRankClientCancel499 verifies a departed client maps to 499 while the
// search keeps running and still lands in the cache for the next caller.
func TestRankClientCancel499(t *testing.T) {
	s, m := blockingServer(t, Options{Workers: 2, QueueCap: 4})
	ctx, cancel := context.WithCancel(context.Background())
	codes := make(chan int, 1)
	go func() {
		rr := doJSONCtx(t, ctx, s, "POST", "/v1/rank", RankRequest{Kernel: "fft"})
		codes <- rr.Code
	}()
	<-m.started // the search is on a worker
	cancel()    // the client goes away
	select {
	case code := <-codes:
		if code != StatusClientClosedRequest {
			t.Fatalf("status %d, want %d", code, StatusClientClosedRequest)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after client cancel")
	}
	// The abandoned search completes and is cached: the next identical
	// request is a hit without a second search.
	m.releaseAll()
	deadline := time.Now().Add(5 * time.Second)
	for s.cache.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned search never cached")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rr := doJSON(t, s, "POST", "/v1/rank", RankRequest{Kernel: "fft"})
	if rr.Code != 200 || rr.Header().Get("X-HMS-Cache") != cacheHit {
		t.Fatalf("follow-up status %d cache %q, want 200 hit", rr.Code, rr.Header().Get("X-HMS-Cache"))
	}
}

// saturate occupies the single worker and the one-slot queue of a
// Workers: 1, QueueCap: 1 blocking server; the returned group finishes once
// the measurer is released.
func saturate(t *testing.T, s *Server, m *blockingMeasurer) *sync.WaitGroup {
	t.Helper()
	var running sync.WaitGroup
	running.Add(1)
	go func() { // occupies the worker
		defer running.Done()
		doJSON(t, s, "POST", "/v1/rank", RankRequest{Kernel: "fft", TopK: 1})
	}()
	<-m.started // the first search is on the worker, so the queue is free
	running.Add(1)
	go func() { // distinct TopK = distinct cache key: occupies the queue slot
		defer running.Done()
		doJSON(t, s, "POST", "/v1/rank", RankRequest{Kernel: "fft", TopK: 2})
	}()
	// Wait until the second request's job occupies the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.QueueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return &running
}

// TestQueueFull429 fills the single worker and the one-slot queue, then
// verifies the next distinct request is shed with 429 + Retry-After.
func TestQueueFull429(t *testing.T) {
	s, m := blockingServer(t, Options{Workers: 1, QueueCap: 1})
	running := saturate(t, s, m)
	rr := doJSON(t, s, "POST", "/v1/rank", RankRequest{Kernel: "fft", TopK: 3})
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rr.Code, rr.Body.String())
	}
	// Retry-After is full-jitter over the queue-scaled one-second base:
	// with a full one-slot queue the exponent is maxed, so the value lands
	// in [1, 1<<4]. Exact values vary by design; the bounds must hold.
	ra, err := strconv.Atoi(rr.Header().Get("Retry-After"))
	if err != nil || ra < 1 || ra > 1<<4 {
		t.Fatalf("Retry-After %q outside jitter bounds [1,%d]", rr.Header().Get("Retry-After"), 1<<4)
	}
	if counterVal(s, obs.MetricServiceRejectedTotal) == 0 {
		t.Fatal("service_rejected_total not incremented")
	}
	m.releaseAll()
	running.Wait()
}

// TestPredictUnknownKernelUnderLoad404: /v1/predict checks the kernel before
// the pool like every other POST route, so an unknown kernel is a 404 even
// when the queue is full, not a 429.
func TestPredictUnknownKernelUnderLoad404(t *testing.T) {
	s, m := blockingServer(t, Options{Workers: 1, QueueCap: 1})
	running := saturate(t, s, m)
	rr := doJSON(t, s, "POST", "/v1/predict", PredictRequest{Kernel: "nope", Target: "smem:G"})
	var er ErrorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
		t.Fatalf("error body not JSON: %v", err)
	}
	if rr.Code != http.StatusNotFound || er.Code != "unknown_kernel" || er.Error != "unknown kernel: nope" {
		t.Fatalf("status %d, body %s; want 404 unknown_kernel %q", rr.Code, rr.Body.String(), "unknown kernel: nope")
	}
	m.releaseAll()
	running.Wait()
}

// TestUnknownKernelEveryRoute: every POST route rejects an unknown kernel with
// the one hmserr sentinel and the same message.
func TestUnknownKernelEveryRoute(t *testing.T) {
	s := newTestServer(t, Options{})
	ctx := context.Background()
	errs := map[string]error{}
	_, _, errs["rank"] = s.rank(ctx, &RankRequest{Kernel: "nope"})
	_, _, errs["compare"] = s.compare(ctx, &CompareRequest{Kernel: "nope"})
	_, _, errs["predict"] = s.predict(ctx, &PredictRequest{Kernel: "nope", Target: "smem:G"})
	_, _, errs["fleet"] = s.fleetRank(ctx, &FleetRankRequest{Tenants: []FleetTenant{{Kernel: "fft"}, {Kernel: "nope"}}})
	for route, err := range errs {
		if !errors.Is(err, hmserr.ErrUnknownKernel) || err.Error() != "unknown kernel: nope" {
			t.Errorf("%s: err = %v, want ErrUnknownKernel %q", route, err, "unknown kernel: nope")
		}
	}
}

// TestGracefulShutdownCancelsInflight verifies Shutdown with an expired
// grace aborts in-flight searches via context cancellation instead of
// hanging, and that the drained pool refuses new work with 503.
func TestGracefulShutdownCancelsInflight(t *testing.T) {
	s, m := blockingServer(t, Options{Workers: 1, QueueCap: 4})
	codes := make(chan int, 1)
	go func() {
		rr := doJSON(t, s, "POST", "/v1/rank", RankRequest{Kernel: "fft"})
		codes <- rr.Code
	}()
	<-m.started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("shutdown took %v despite cancellation", elapsed)
	}
	select {
	case code := <-codes:
		// The canceled search maps to 499 (base context canceled).
		if code != StatusClientClosedRequest {
			t.Fatalf("in-flight request status %d, want %d", code, StatusClientClosedRequest)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight handler never returned")
	}
	rr := doJSON(t, s, "POST", "/v1/rank", RankRequest{Kernel: "fft", TopK: 9})
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status %d, want 503", rr.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	doJSON(t, s, "POST", "/v1/rank", RankRequest{Kernel: "fft", TopK: 1})
	rr := doJSON(t, s, "GET", "/metrics", nil)
	if rr.Code != 200 {
		t.Fatalf("metrics status %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{
		obs.MetricServiceRequestsTotal,
		obs.MetricServiceSearchesTotal,
		obs.MetricServiceRequestNS + "_bucket",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Fatalf("metrics output missing %s:\n%s", want, body)
		}
	}
}

// waitGoroutines waits for the goroutine count to settle back near the
// baseline, failing if worker or search goroutines leaked.
func waitGoroutines(t testing.TB, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// countingMeasurer counts profiling runs (= searches actually executed)
// and delegates to a real simulator.
type countingMeasurer struct {
	cfg  *gpu.Config
	runs atomic.Int64
}

func (m *countingMeasurer) Run(t *trace.Trace, sample, target *placement.Placement) (*sim.Measurement, error) {
	return m.RunContext(context.Background(), t, sample, target)
}

func (m *countingMeasurer) RunContext(ctx context.Context, t *trace.Trace, sample, target *placement.Placement) (*sim.Measurement, error) {
	m.runs.Add(1)
	return sim.New(m.cfg).RunContext(ctx, t, sample, target)
}

// countingServer builds a server whose profiling runs are counted.
func countingServer(t testing.TB, opt Options) (*Server, *countingMeasurer) {
	t.Helper()
	base := testAdvisor(t)
	m := &countingMeasurer{cfg: base.Cfg}
	adv := &advisor.Advisor{Cfg: base.Cfg, Model: base.Model, Measurer: m}
	s, err := New(map[string]*advisor.Advisor{"k80": adv}, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, m
}

// counterVal reads one counter from the server's metrics snapshot.
func counterVal(s *Server, name string) int64 {
	for _, c := range s.Collector().Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
