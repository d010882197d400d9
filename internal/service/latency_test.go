package service

import (
	"bytes"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"gpuhms/internal/advisor"
)

// percentile returns the p-quantile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	return sorted[int(p*float64(len(sorted)-1))]
}

// timeRank issues one /v1/rank request and returns its latency, failing
// unless it answers 200 with the wanted cache verdict.
func timeRank(t *testing.T, s *Server, req RankRequest, wantCache string) time.Duration {
	t.Helper()
	start := time.Now()
	rr := doJSON(t, s, "POST", "/v1/rank", req)
	elapsed := time.Since(start)
	if rr.Code != 200 {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if got := rr.Header().Get(HeaderCache); got != wantCache {
		t.Fatalf("X-HMS-Cache %q, want %q", got, wantCache)
	}
	return elapsed
}

// TestCachedRankLatency measures cold (distinct-key search) versus cached fft
// rank latency through the full handler stack: the cached path must be at
// least 10x faster at the median, and its p99 must stay within the default
// 250ms latency SLO target.
func TestCachedRankLatency(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock bound: the race detector distorts timings")
	}
	s := newTestServer(t, Options{})

	// Cold: every request is a distinct cache key, so each one runs a full
	// profile-and-rank search.
	const coldN = 20
	cold := make([]time.Duration, 0, coldN)
	for i := 0; i < coldN; i++ {
		cold = append(cold, timeRank(t, s, RankRequest{Kernel: "fft", TopK: i + 1}, cacheMiss))
	}
	// Cached: one warm key replayed, served straight from the LRU.
	const cachedN = 500
	cached := make([]time.Duration, 0, cachedN)
	for i := 0; i < cachedN; i++ {
		cached = append(cached, timeRank(t, s, RankRequest{Kernel: "fft", TopK: 1}, cacheHit))
	}
	for _, d := range [][]time.Duration{cold, cached} {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}

	coldP50, cachedP50, cachedP99 := percentile(cold, 0.5), percentile(cached, 0.5), percentile(cached, 0.99)
	speedup := float64(coldP50) / float64(cachedP50)
	t.Logf("cold p50 %v, cached p50 %v p99 %v — %.0fx", coldP50, cachedP50, cachedP99, speedup)
	if speedup < 10 {
		t.Errorf("cached p50 only %.1fx faster than cold (want >= 10x): cold %v cached %v", speedup, coldP50, cachedP50)
	}
	const sloP99 = 250 * time.Millisecond
	if cachedP99 > sloP99 {
		t.Errorf("cached p99 %v over the %v SLO target", cachedP99, sloP99)
	}
}

// TestWarmBootLatency compares time to first response of a process restored
// from a snapshot (load model, restore cache, serve a hit) with a cold one
// (train, full search): the restored boot must be at least 5x faster, and
// its first answer a cache hit.
func TestWarmBootLatency(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock bound: the race detector distorts timings")
	}
	s := newTestServer(t, Options{})
	warm := RankRequest{Kernel: "fft", TopK: 1}
	timeRank(t, s, warm, cacheMiss)
	snapPath := filepath.Join(t.TempDir(), "warm.snap")
	if err := s.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	cfg := testAdvisor(t).Cfg

	newServer := func(adv *advisor.Advisor) *Server {
		srv, err := New(map[string]*advisor.Advisor{"k80": adv}, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	start := time.Now()
	adv, err := advisor.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	timeRank(t, newServer(adv), warm, cacheMiss)
	coldBoot := time.Since(start)

	start = time.Now()
	contents, err := ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if contents.Skipped != 0 {
		t.Fatalf("snapshot read skipped %d entries", contents.Skipped)
	}
	restored, err := advisor.NewFromSaved(cfg, bytes.NewReader(contents.Models["k80"]))
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(restored)
	srv.RestoreCache(contents.Cache)
	timeRank(t, srv, warm, cacheHit)
	warmBoot := time.Since(start)

	speedup := float64(coldBoot) / float64(warmBoot)
	t.Logf("cold boot %v, restored boot %v — %.0fx", coldBoot, warmBoot, speedup)
	if speedup < 5 {
		t.Errorf("warm boot only %.1fx faster to first response than cold boot (want >= 5x): cold %v restored %v",
			speedup, coldBoot, warmBoot)
	}
}
