package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"testing"

	"gpuhms/internal/hmserr"
	"gpuhms/internal/snapshot"
)

func decodeFleet(t testing.TB, body []byte) *FleetRankResponse {
	t.Helper()
	var resp FleetRankResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding fleet response %q: %v", body, err)
	}
	return &resp
}

// cheapFleetBody is a contended fleet request over small placement spaces
// (no spmv) so tests stay fast.
const cheapFleetBody = `{"tenants":[{"kernel":"sort"},{"kernel":"fft"},{"kernel":"vecadd"},{"kernel":"reduction"}],"budgets":{"shared":2048}}`

// TestFleetEndpoint: POST /v1/fleet/rank on the bundled contended mix
// returns a feasible assignment whose objective beats the naive baseline,
// and repeats hit the fleet cache byte-identically.
func TestFleetEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := doJSON(t, s, "POST", "/v1/fleet/rank", `{"mix":"shared-squeeze"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if got := rr.Header().Get(HeaderCache); got != cacheMiss {
		t.Errorf("first request cache header %q, want %q", got, cacheMiss)
	}
	resp := decodeFleet(t, rr.Body.Bytes())
	if resp.Solver == "" || resp.Objective != "minmax" {
		t.Errorf("solver %q objective %q", resp.Solver, resp.Objective)
	}
	if len(resp.Tenants) != 4 {
		t.Fatalf("%d tenants, want 4", len(resp.Tenants))
	}
	if resp.ObjectiveValue <= 0 {
		t.Errorf("objective_value %v", resp.ObjectiveValue)
	}
	if resp.Independent == nil || resp.Independent.UnconstrainedFits {
		t.Errorf("independent baseline %+v, want contended", resp.Independent)
	}
	if resp.Independent != nil && resp.ObjectiveValue >= resp.Independent.ObjectiveValue {
		t.Errorf("fleet objective %.4f does not beat baseline %.4f",
			resp.ObjectiveValue, resp.Independent.ObjectiveValue)
	}
	for _, u := range resp.Usage {
		if u.Used > u.Limit {
			t.Errorf("usage %s: %d > limit %d", u.Space, u.Used, u.Limit)
		}
	}

	rr2 := doJSON(t, s, "POST", "/v1/fleet/rank", `{"mix":"shared-squeeze"}`)
	if rr2.Code != http.StatusOK {
		t.Fatalf("repeat status %d", rr2.Code)
	}
	if got := rr2.Header().Get(HeaderCache); got != cacheHit {
		t.Errorf("repeat cache header %q, want %q", got, cacheHit)
	}
	if !bytes.Equal(rr.Body.Bytes(), rr2.Body.Bytes()) {
		t.Error("cached fleet response differs from the original")
	}
}

// TestFleetArchAlias: /v1/fleet/rank canonicalizes an arch alias at
// decode, as /v1/rank does, so the alias is served by the canonical advisor
// and shares its cache entry with the canonical spelling.
func TestFleetArchAlias(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := doJSON(t, s, "POST", "/v1/fleet/rank", `{"arch":"Tesla-K80","mix":"balanced"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("alias status %d: %s", rr.Code, rr.Body.String())
	}
	if resp := decodeFleet(t, rr.Body.Bytes()); resp.Arch != "k80" {
		t.Errorf("alias reply arch %q, want k80", resp.Arch)
	}
	rr2 := doJSON(t, s, "POST", "/v1/fleet/rank", `{"arch":"k80","mix":"balanced"}`)
	if rr2.Code != http.StatusOK {
		t.Fatalf("canonical status %d: %s", rr2.Code, rr2.Body.String())
	}
	if got := rr2.Header().Get(HeaderCache); got != cacheHit {
		t.Errorf("canonical request after alias: cache header %q, want %q", got, cacheHit)
	}
	if !bytes.Equal(rr.Body.Bytes(), rr2.Body.Bytes()) {
		t.Error("canonical reply differs from the alias reply")
	}
}

// TestFleetEndpointSolverAndWeights: explicit solver/objective fields are
// honored and echoed canonically.
func TestFleetEndpointSolverAndWeights(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := doJSON(t, s, "POST", "/v1/fleet/rank",
		`{"tenants":[{"kernel":"fft","weight":3},{"kernel":"sort"}],"budgets":{"shared":2048},"solver":"beam","objective":"weighted-sum"}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	resp := decodeFleet(t, rr.Body.Bytes())
	if resp.Solver != "beam-4" {
		t.Errorf("solver %q, want beam-4 (canonical)", resp.Solver)
	}
	if resp.Objective != "weighted" {
		t.Errorf("objective %q, want weighted (canonical)", resp.Objective)
	}
	if resp.Tenants[0].Weight != 3 {
		t.Errorf("tenant weight %v not echoed", resp.Tenants[0].Weight)
	}
}

// TestFleetEndpointErrors pins the fleet error taxonomy end to end.
func TestFleetEndpointErrors(t *testing.T) {
	s := newTestServer(t, Options{})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"unknown mix", `{"mix":"nope"}`, http.StatusNotFound, "unknown_mix"},
		{"unknown kernel", `{"tenants":[{"kernel":"nope"}]}`, http.StatusNotFound, "unknown_kernel"},
		{"unknown solver", `{"mix":"balanced","solver":"annealing"}`, http.StatusBadRequest, "unknown_strategy"},
		{"unknown arch", `{"mix":"balanced","arch":"h100"}`, http.StatusNotFound, "unknown_arch"},
		{"mix and tenants", `{"mix":"balanced","tenants":[{"kernel":"fft"}]}`, http.StatusBadRequest, "bad_request"},
		{"infeasible budgets", `{"tenants":[{"kernel":"vecadd"}],"budgets":{"shared":4,"global":4,"constant":4,"texture1D":4,"texture2D":4}}`,
			http.StatusUnprocessableEntity, "capacity_exceeded"},
		{"menu budget", `{"mix":"balanced","max_candidates":2}`, http.StatusBadRequest, "budget_exceeded"},
	}
	for _, tc := range cases {
		rr := doJSON(t, s, "POST", "/v1/fleet/rank", tc.body)
		if rr.Code != tc.status {
			t.Errorf("%s: status %d, want %d: %.200s", tc.name, rr.Code, tc.status, rr.Body.String())
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &er); err != nil {
			t.Errorf("%s: bad error body: %v", tc.name, err)
			continue
		}
		if er.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, er.Code, tc.code)
		}
	}
}

// TestCapacityStatusMapping pins the 422 unit mapping: the capacity sentinel
// chains onto ErrIllegalPlacement, so order in statusOf matters.
func TestCapacityStatusMapping(t *testing.T) {
	err := hmserr.Wrap(hmserr.ErrCapacityExceeded, "no fit")
	if got := statusOf(err); got != http.StatusUnprocessableEntity {
		t.Errorf("statusOf(capacity) = %d, want 422", got)
	}
	if got := codeOf(err); got != "capacity_exceeded" {
		t.Errorf("codeOf(capacity) = %q", got)
	}
	// Plain illegal placements still map to 400.
	if got := statusOf(hmserr.Wrap(hmserr.ErrIllegalPlacement, "bad")); got != http.StatusBadRequest {
		t.Errorf("statusOf(illegal) = %d, want 400", got)
	}
	// Fleet menu-budget exhaustion maps to 400, never 5xx.
	if got := statusOf(&hmserr.BudgetError{Evaluated: 3, What: "fleet menu evaluations"}); got != http.StatusBadRequest {
		t.Errorf("statusOf(budget) = %d, want 400", got)
	}
}

// TestFleetDeterministicAcrossServerParallelism: byte-identical fleet
// responses whatever the server's configured ranking parallelism.
func TestFleetDeterministicAcrossServerParallelism(t *testing.T) {
	var first []byte
	for _, par := range []int{1, 2, 8} {
		s := newTestServer(t, Options{Parallelism: par})
		rr := doJSON(t, s, "POST", "/v1/fleet/rank", cheapFleetBody)
		if rr.Code != http.StatusOK {
			t.Fatalf("parallelism %d: status %d: %s", par, rr.Code, rr.Body.String())
		}
		if first == nil {
			first = append([]byte(nil), rr.Body.Bytes()...)
		} else if !bytes.Equal(first, rr.Body.Bytes()) {
			t.Errorf("parallelism %d: response differs from parallelism 1:\n%s\nvs\n%s",
				par, rr.Body.Bytes(), first)
		}
	}
}

// TestFleetAndRankConcurrently is the -race hammer: fleet and single-kernel
// requests against one shared server, hitting both caches, the singleflight,
// and the pool at once.
func TestFleetAndRankConcurrently(t *testing.T) {
	s := newTestServer(t, Options{})
	bodies := []struct{ path, body string }{
		{"/v1/fleet/rank", cheapFleetBody},
		{"/v1/fleet/rank", `{"tenants":[{"kernel":"vecadd"},{"kernel":"reduction"}],"budgets":{"shared":1024}}`},
		{"/v1/rank", `{"kernel":"fft","top_k":3}`},
		{"/v1/rank", `{"kernel":"sort","top_k":3}`},
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for round := 0; round < 4; round++ {
		for _, b := range bodies {
			wg.Add(1)
			go func(path, body string) {
				defer wg.Done()
				rr := doJSON(t, s, "POST", path, body)
				if rr.Code != http.StatusOK {
					errs <- rr.Body.String()
				}
			}(b.path, b.body)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent request failed: %.200s", e)
	}
}

// TestSnapshotRoundtripFleet: fleet cache entries survive the snapshot
// save/restore cycle and serve warm hits; corrupt fleet entries are skipped
// and counted, never fatal.
func TestSnapshotRoundtripFleet(t *testing.T) {
	s := newTestServer(t, Options{})
	rr := doJSON(t, s, "POST", "/v1/fleet/rank", cheapFleetBody)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	rrRank := doJSON(t, s, "POST", "/v1/rank", `{"kernel":"vecadd","top_k":2}`)
	if rrRank.Code != http.StatusOK {
		t.Fatalf("rank status %d", rrRank.Code)
	}

	path := t.TempDir() + "/snap.hms"
	if err := s.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	contents, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(contents.Fleet) != 1 {
		t.Fatalf("%d fleet entries in snapshot, want 1", len(contents.Fleet))
	}
	if len(contents.Cache) != 1 {
		t.Fatalf("%d rank entries in snapshot, want 1", len(contents.Cache))
	}

	s2 := newTestServer(t, Options{})
	restored, skipped := s2.RestoreFleetCache(contents.Fleet)
	if restored != 1 || skipped != 0 {
		t.Fatalf("restored %d skipped %d, want 1/0", restored, skipped)
	}
	rr2 := doJSON(t, s2, "POST", "/v1/fleet/rank", cheapFleetBody)
	if rr2.Code != http.StatusOK {
		t.Fatalf("warm status %d", rr2.Code)
	}
	if got := rr2.Header().Get(HeaderCache); got != cacheHit {
		t.Errorf("warm-boot fleet request cache header %q, want %q", got, cacheHit)
	}
	if !bytes.Equal(rr.Body.Bytes(), rr2.Body.Bytes()) {
		t.Error("restored fleet response differs from the original")
	}

	// Damaged fleet entries are skipped at both validation layers.
	bad := []FleetCachedResponse{
		{Key: "", Resp: decodeFleet(t, rr.Body.Bytes())},
		{Key: "k", Resp: nil},
		{Key: "k2", Resp: &FleetRankResponse{}}, // no tenants, no solver
	}
	restored, skipped = s2.RestoreFleetCache(bad)
	if restored != 0 || skipped != 3 {
		t.Errorf("bad entries: restored %d skipped %d, want 0/3", restored, skipped)
	}
}

// TestSnapshotCorruptFleetEntrySkipped: a torn fleet entry inside the file
// drops only that entry.
func TestSnapshotCorruptFleetEntrySkipped(t *testing.T) {
	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := json.Marshal(snapFleetPayload{Key: "k", Response: json.RawMessage(
		`{"arch":"k80","solver":"greedy","objective":"minmax","objective_value":1,"tenants":[{"tenant":"t0","kernel":"fft","scale":1,"placement":"x:G","predicted_ns":1,"best_ns":1,"slowdown":1}]}`)})
	if err := sw.Append(SnapKindFleet, good); err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(SnapKindFleet, []byte(`{"key":"k2","response":{"tenants":[]}}`)); err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(SnapKindFleet, []byte(`not json`)); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/snap.hms"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	contents, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(contents.Fleet) != 1 || contents.Fleet[0].Key != "k" {
		t.Fatalf("fleet entries %+v, want only key k", contents.Fleet)
	}
	if contents.Skipped != 2 {
		t.Errorf("skipped %d, want 2", contents.Skipped)
	}
}

// TestFleetKeyDistinguishes pins that every result-changing field lands in
// the cache key and the excluded ones stay out.
func TestFleetKeyDistinguishes(t *testing.T) {
	base := func() *FleetRankRequest {
		req, err := DecodeFleetRequest([]byte(cheapFleetBody))
		if err != nil {
			t.Fatal(err)
		}
		req.Arch = "k80"
		req.Solver = "greedy"
		return req
	}
	k0 := FleetKey(base())
	mutations := map[string]func(*FleetRankRequest){
		"solver":    func(r *FleetRankRequest) { r.Solver = "beam-4" },
		"objective": func(r *FleetRankRequest) { r.Objective = "weighted" },
		"budget":    func(r *FleetRankRequest) { r.Budgets["shared"] = 4096 },
		"weight":    func(r *FleetRankRequest) { r.Tenants[0].Weight = 2 },
		"scale":     func(r *FleetRankRequest) { r.Tenants[0].Scale = 2 },
		"menu":      func(r *FleetRankRequest) { r.MenuSize = 8 },
		"tenant":    func(r *FleetRankRequest) { r.Tenants = r.Tenants[:3] },
	}
	for name, mutate := range mutations {
		req := base()
		mutate(req)
		if FleetKey(req) == k0 {
			t.Errorf("mutation %q does not change the fleet key", name)
		}
	}
	same := base()
	same.TimeoutMS = 5000 // excluded: bounds, not defines, the result
	if FleetKey(same) != k0 {
		t.Error("timeout_ms leaked into the fleet key")
	}
	par := base()
	par.Parallelism = 8 // excluded while max_candidates == 0
	if FleetKey(par) != k0 {
		t.Error("parallelism leaked into an unbudgeted fleet key")
	}
}

// TestFleetDefaultSolverOption: the server default solver applies when the
// request has none, and is normalized at New.
func TestFleetDefaultSolverOption(t *testing.T) {
	s := newTestServer(t, Options{DefaultFleetSolver: "beam"})
	rr := doJSON(t, s, "POST", "/v1/fleet/rank", cheapFleetBody)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	if resp := decodeFleet(t, rr.Body.Bytes()); resp.Solver != "beam-4" {
		t.Errorf("solver %q, want beam-4 from server default", resp.Solver)
	}
}
