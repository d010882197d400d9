package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuhms/internal/advisor"
	"gpuhms/internal/faults"
	"gpuhms/internal/obs"
	"gpuhms/internal/snapshot"
)

// soakDuration returns the hammer phase length: 1.2s by default, overridden
// by HMS_SOAK_MS for the full harness (scripts/soak.sh).
func soakDuration() time.Duration {
	if ms, err := strconv.Atoi(os.Getenv("HMS_SOAK_MS")); err == nil && ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return 1200 * time.Millisecond
}

// TestSoakChaos is the chaos soak harness (docs/ROBUSTNESS.md): it hammers a
// live server over real HTTP with mixed strategies, budgets, and client
// cancels while snapshot writes fail, tear, and stall under seeded fault
// injection and the snapshot is save/restore-cycled concurrently. It then
// asserts the robustness invariants: zero 500s (429/503/504 are documented
// flow control), an X-Request-ID on every response, a byte-identical ranking
// across a snapshot restore into a fresh server, and zero leaked goroutines.
//
// The fault seed is taken from HMS_FAULT_SEED when set; a failure always
// logs the seed, so any run can be replayed exactly.
func TestSoakChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	baseGoroutines := runtime.NumGoroutine()

	seed, fromEnv := faults.EnvSeed(time.Now().UnixNano())
	t.Logf("soak: fault seed %d (replay with %s=%d)", seed, faults.EnvSeedVar, seed)
	if fromEnv {
		t.Logf("soak: seed pinned from %s", faults.EnvSeedVar)
	}
	pts := faults.NewPoints(seed).
		Set(snapshot.PointWrite, faults.PointOptions{FailProb: 0.2, TornProb: 0.2, DelayProb: 0.3, MaxDelay: 2 * time.Millisecond}).
		Set(snapshot.PointSync, faults.PointOptions{FailProb: 0.1, DelayProb: 0.2, MaxDelay: time.Millisecond}).
		Set(snapshot.PointRename, faults.PointOptions{FailProb: 0.1})

	s := newTestServer(t, Options{Workers: 2, QueueCap: 4, CacheCap: 64, SnapshotFaults: pts})
	s.MarkReady()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	defer client.CloseIdleConnections()

	// The reference ranking: cached now, compared byte-for-byte after the
	// soak against a server restored from the survivor snapshot.
	refReq := `{"kernel":"fft","top_k":4}`
	refBody, status, _ := soakPost(t, client, ts.URL+"/v1/rank", refReq, 0)
	if status != 200 {
		t.Fatalf("reference ranking status %d: %s", status, refBody)
	}

	stop := make(chan struct{})
	time.AfterFunc(soakDuration(), func() { close(stop) })

	var (
		wg         sync.WaitGroup
		got500     atomic.Int64
		first500   atomic.Value // string
		missingID  atomic.Int64
		firstNoID  atomic.Value // string
		statuses   sync.Map     // status code -> *atomic.Int64
		cycleSaves atomic.Int64
	)
	count := func(code int) {
		v, _ := statuses.LoadOrStore(code, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
	}
	checkID := func(method, path string, status int, id string) {
		if id == "" {
			missingID.Add(1)
			firstNoID.CompareAndSwap(nil, fmt.Sprintf("%s %s -> %d", method, path, status))
		}
	}

	// Client hammer: mixed kernels, strategies, budgets, malformed bodies,
	// and mid-request cancels.
	kernels := []string{"fft", "fft", "fft", "nosuchkernel"}
	strategies := []string{"", "exhaustive", "greedy", "beam-2", "warp9"}
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var body, path string
				switch rng.Intn(10) {
				case 0:
					path, body = "/v1/predict", fmt.Sprintf(`{"kernel":%q,"target":"a:gm"}`, kernels[rng.Intn(len(kernels))])
				case 1:
					path, body = "/v1/rank", `{"kernel":`
				default:
					path = "/v1/rank"
					body = fmt.Sprintf(`{"kernel":%q,"top_k":%d,"strategy":%q,"timeout_ms":%d}`,
						kernels[rng.Intn(len(kernels))], 1+rng.Intn(6),
						strategies[rng.Intn(len(strategies))], []int{0, 1, 5, 50}[rng.Intn(4)])
				}
				cancelIn := time.Duration(0)
				if rng.Intn(4) == 0 {
					cancelIn = time.Duration(1+rng.Intn(5)) * time.Millisecond
				}
				resp, status, id := soakPost(t, client, ts.URL+path, body, cancelIn)
				if status == 0 {
					continue // client-side cancel before any response
				}
				count(status)
				checkID("POST", path, status, id)
				if status >= 500 && status != 503 && status != 504 {
					got500.Add(1)
					first500.CompareAndSwap(nil, fmt.Sprintf("POST %s %s -> %d: %s", path, body, status, resp))
				}
			}
		}(c)
	}
	// Metrics/health poller: read endpoints must stay clean under load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, p := range []string{"/metrics", "/healthz", "/readyz", "/v1/kernels"} {
				_, status, id := soakPost(t, client, ts.URL+p, "", 0)
				if status >= 500 {
					got500.Add(1)
					first500.CompareAndSwap(nil, fmt.Sprintf("GET %s -> %d", p, status))
				}
				if status != 0 {
					checkID("GET", p, status, id)
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	// Snapshot cycler: save under injected faults, read whatever survived,
	// and restore it onto the live server — all while traffic flows.
	snapDir := t.TempDir()
	cyclePath := filepath.Join(snapDir, "cycle.snap")
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.SaveSnapshot(cyclePath); err == nil {
				cycleSaves.Add(1)
			}
			contents, err := ReadSnapshotFile(cyclePath)
			if err != nil {
				// Header-level damage would mean WriteAtomic let a torn file
				// replace a good one: the core crash-safety invariant.
				got500.Add(1)
				first500.CompareAndSwap(nil, fmt.Sprintf("snapshot cycle read: %v", err))
				return
			}
			s.RestoreCache(contents.Cache)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()
	var mix []string
	statuses.Range(func(k, v any) bool {
		mix = append(mix, fmt.Sprintf("%d:%d", k, v.(*atomic.Int64).Load()))
		return true
	})
	t.Logf("soak: status mix %v, %d fault injections, %d snapshot saves survived",
		mix, pts.Injected.Load(), cycleSaves.Load())
	if n := got500.Load(); n != 0 {
		t.Fatalf("soak: %d server faults (seed %d): first: %v", n, seed, first500.Load())
	}
	if n := missingID.Load(); n != 0 {
		t.Fatalf("soak: %d responses without %s (seed %d): first: %v", n, HeaderRequestID, seed, firstNoID.Load())
	}
	if n := counterVal(s, obs.MetricServiceErrorsTotal); n != 0 {
		t.Fatalf("soak: service_errors_total = %d, want 0 (seed %d)", n, seed)
	}

	// Survivor snapshot, written without faults: restoring it into a fresh
	// server must reproduce the reference ranking byte for byte.
	finalPath := filepath.Join(snapDir, "final.snap")
	if err := snapshotWithoutFaults(s, finalPath); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	contents, err := ReadSnapshotFile(finalPath)
	if err != nil {
		t.Fatalf("final snapshot read: %v", err)
	}
	adv2, err := advisor.NewFromSaved(testAdvisor(t).Cfg, bytes.NewReader(contents.Models["k80"]))
	if err != nil {
		t.Fatalf("restoring model from survivor snapshot: %v", err)
	}
	s2, err := New(map[string]*advisor.Advisor{"k80": adv2}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2.RestoreCache(contents.Cache)
	rr := doJSON(t, s2, "POST", "/v1/rank", json.RawMessage(refReq))
	if rr.Code != 200 || rr.Header().Get("X-HMS-Cache") != cacheHit {
		t.Fatalf("post-restore reference ranking: status %d cache %q (seed %d)", rr.Code, rr.Header().Get("X-HMS-Cache"), seed)
	}
	if !bytes.Equal(rr.Body.Bytes(), refBody) {
		t.Fatalf("ranking changed across snapshot restore (seed %d):\npre:  %s\npost: %s", seed, refBody, rr.Body.Bytes())
	}
	s2.Close()

	ts.Close()
	client.CloseIdleConnections()
	s.Close()
	waitGoroutines(t, baseGoroutines)

	// The runtime_goroutines gauge is sampled at scrape time, so a scrape
	// after the drain must see the same no-leak state waitGoroutines just
	// proved: the gauge returns to (near) the pre-soak baseline.
	if g := gaugeVal(t, s.Collector(), obs.MetricRuntimeGoroutines); int(g) > baseGoroutines+2 {
		t.Fatalf("runtime_goroutines gauge %v after drain, baseline %d", g, baseGoroutines)
	}
}

// gaugeVal scrapes one gauge from the collector.
func gaugeVal(t testing.TB, col *obs.Collector, name string) float64 {
	t.Helper()
	for _, g := range col.Snapshot().Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	t.Fatalf("gauge %s not in snapshot", name)
	return 0
}

// soakPost issues one request (POST when body is non-empty, GET otherwise),
// optionally canceling it after cancelIn, and returns the body, status, and
// X-Request-ID. Status 0 means the client gave up before a status arrived.
func soakPost(t *testing.T, client *http.Client, url, body string, cancelIn time.Duration) ([]byte, int, string) {
	t.Helper()
	ctx := context.Background()
	if cancelIn > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cancelIn)
		defer cancel()
	}
	method, rd := http.MethodGet, io.Reader(nil)
	if body != "" {
		method, rd = http.MethodPost, bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return b, resp.StatusCode, resp.Header.Get(HeaderRequestID)
}

// snapshotWithoutFaults saves s's warm state bypassing the server's
// configured fault hooks (for the survivor snapshot the assertions read).
func snapshotWithoutFaults(s *Server, path string) error {
	_, err := snapshot.WriteAtomic(path, nil, s.appendSnapshotEntries)
	return err
}
