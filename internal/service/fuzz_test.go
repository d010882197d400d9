package service

import (
	"errors"
	"strings"
	"testing"

	"gpuhms/internal/advisor"
	"gpuhms/internal/fleet"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
)

// hostileRankBodies are the adversarial seeds: oversized scales, unknown
// kernels, malformed placement specs, negative budgets, wrong JSON types,
// and syntactic garbage. Shared by the fuzzer and the end-to-end 4xx test.
var hostileRankBodies = []string{
	``,
	`{`,
	`null`,
	`[]`,
	`"rank"`,
	`{}`,
	`{"kernel":""}`,
	`{"kernel":"fft","scale":2147483647}`,
	`{"kernel":"fft","scale":-1}`,
	`{"kernel":"no-such-kernel"}`,
	`{"kernel":"fft","sample":"smem:Q"}`,
	`{"kernel":"fft","sample":"not-a-spec"}`,
	`{"kernel":"fft","sample":":::"}`,
	`{"kernel":"fft","max_candidates":-7}`,
	`{"kernel":"fft","top_k":-1}`,
	`{"kernel":"fft","top_k":99999999}`,
	`{"kernel":"fft","timeout_ms":-50}`,
	`{"kernel":"fft","timeout_ms":99999999}`,
	`{"kernel":"fft","scale":"big"}`,
	`{"kernel":42}`,
	`{"kernel":"` + strings.Repeat("K", 10000) + `"}`,
	`{"kernel":"fft","sample":"` + strings.Repeat("a:G,", 5000) + `"}`,
	`{"kernel":"fft","arch":"` + strings.Repeat("x", 1000) + `"}`,
	`{"kernel":"fft","strategy":"annealing"}`,
	`{"kernel":"fft","strategy":"beam-"}`,
	`{"kernel":"fft","strategy":"beam-0"}`,
	`{"kernel":"fft","strategy":"beam-99999999"}`,
	`{"kernel":"fft","strategy":42}`,
	`{"kernel":"fft","strategy":"` + strings.Repeat("beam-", 2000) + `"}`,
}

// FuzzDecodeRankRequest asserts the decode surface never panics and that
// any accepted request is within the hardening limits — hostile bodies
// become ErrBadRequest (a 400), never a 5xx or a crash.
func FuzzDecodeRankRequest(f *testing.F) {
	for _, seed := range hostileRankBodies {
		f.Add([]byte(seed))
	}
	f.Add([]byte(`{"kernel":"fft","scale":2,"top_k":3,"max_candidates":10,"timeout_ms":1000}`))
	f.Add([]byte(`{"kernel":"fft","unknown_field":true}`))
	f.Add([]byte(`{"kernel":"fft","strategy":"beam-4"}`))
	f.Add([]byte(`{"kernel":"fft","strategy":"greedy","parallelism":8}`))
	f.Add([]byte(`{"kernel":"fft","strategy":"EXHAUSTIVE"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRankRequest(data)
		if err != nil {
			// Both classes map to 400: generic validation failures and
			// unknown search strategies.
			if !errors.Is(err, ErrBadRequest) && !errors.Is(err, hmserr.ErrUnknownStrategy) {
				t.Fatalf("decode error %v wraps neither ErrBadRequest nor ErrUnknownStrategy", err)
			}
			return
		}
		// Accepted requests must be within the hardening limits.
		if req.Kernel == "" || len(req.Kernel) > 256 {
			t.Fatalf("accepted kernel %q", req.Kernel)
		}
		if req.Scale < 1 || req.Scale > MaxScale {
			t.Fatalf("accepted scale %d", req.Scale)
		}
		if len(req.Sample) > MaxSpecLen || len(req.Arch) > 64 {
			t.Fatal("accepted oversized spec")
		}
		if req.TopK < 0 || req.TopK > MaxTopK || req.MaxCandidates < 0 {
			t.Fatalf("accepted options k=%d c=%d", req.TopK, req.MaxCandidates)
		}
		if req.TimeoutMS < 0 || req.TimeoutMS > MaxTimeoutMS {
			t.Fatalf("accepted timeout %d", req.TimeoutMS)
		}
		if req.Strategy != "" {
			// Accepted strategies are already canonical specs.
			strat, serr := advisor.ParseStrategy(req.Strategy)
			if serr != nil || strat.Spec() != req.Strategy {
				t.Fatalf("accepted non-canonical strategy %q (%v)", req.Strategy, serr)
			}
		}
	})
}

func FuzzDecodePredictRequest(f *testing.F) {
	for _, seed := range hostileRankBodies {
		f.Add([]byte(seed))
	}
	f.Add([]byte(`{"kernel":"fft","target":"smem:G"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodePredictRequest(data)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
			}
			return
		}
		if req.Kernel == "" || req.Target == "" {
			t.Fatal("accepted request without kernel/target")
		}
	})
}

// hostileFleetBodies are the fleet endpoint's adversarial seeds: too many
// tenants, duplicate names, hostile weights and budgets, mix/tenants
// conflicts, unknown solvers and objectives. Shared by FuzzDecodeFleetRequest
// and the end-to-end 4xx sweep.
var hostileFleetBodies = []string{
	``,
	`{`,
	`null`,
	`{}`,
	`{"tenants":[]}`,
	`{"tenants":[{"kernel":""}]}`,
	`{"tenants":[{"kernel":"fft"}],"mix":"shared-squeeze"}`,
	`{"mix":"no-such-mix"}`,
	`{"mix":"` + strings.Repeat("m", 10000) + `"}`,
	`{"tenants":[` + strings.Repeat(`{"kernel":"fft"},`, 16) + `{"kernel":"fft"}]}`,
	`{"tenants":[{"kernel":"fft","name":"a"},{"kernel":"sort","name":"a"}]}`,
	`{"tenants":[{"kernel":"fft","name":"` + strings.Repeat("n", 1000) + `"}]}`,
	`{"tenants":[{"kernel":"fft","scale":-3}]}`,
	`{"tenants":[{"kernel":"fft","scale":2147483647}]}`,
	`{"tenants":[{"kernel":"fft","weight":-1}]}`,
	`{"tenants":[{"kernel":"fft","weight":1e308}]}`,
	`{"tenants":[{"kernel":"fft","sample":"` + strings.Repeat("a:G,", 5000) + `"}]}`,
	`{"tenants":[{"kernel":"fft"}],"budgets":{"warp":1}}`,
	`{"tenants":[{"kernel":"fft"}],"budgets":{"shared":-2}}`,
	`{"tenants":[{"kernel":"fft"}],"budgets":{"shared":1,"S":2}}`,
	`{"tenants":[{"kernel":"fft"}],"budgets":{"` + strings.Repeat("s", 1000) + `":1}}`,
	`{"tenants":[{"kernel":"fft"}],"solver":"annealing"}`,
	`{"tenants":[{"kernel":"fft"}],"solver":"beam-0"}`,
	`{"tenants":[{"kernel":"fft"}],"solver":"beam-99999999"}`,
	`{"tenants":[{"kernel":"fft"}],"objective":"fairness"}`,
	`{"tenants":[{"kernel":"fft"}],"menu_size":-1}`,
	`{"tenants":[{"kernel":"fft"}],"menu_size":99999}`,
	`{"tenants":[{"kernel":"fft"}],"max_candidates":-7}`,
	`{"tenants":[{"kernel":"fft"}],"parallelism":9999}`,
	`{"tenants":[{"kernel":"fft"}],"timeout_ms":-50}`,
	`{"tenants":"fft"}`,
	`{"tenants":[{"kernel":42}]}`,
	`{"budgets":[1,2,3]}`,
}

// FuzzDecodeFleetRequest asserts the fleet decode surface never panics and
// that accepted requests are bounded and canonical — hostile bodies become
// ErrBadRequest, ErrUnknownStrategy, or fleet.ErrUnknownMix (4xx all), never
// a 5xx or a crash.
func FuzzDecodeFleetRequest(f *testing.F) {
	for _, seed := range hostileFleetBodies {
		f.Add([]byte(seed))
	}
	f.Add([]byte(`{"mix":"shared-squeeze"}`))
	f.Add([]byte(`{"mix":"balanced","solver":"beam-8","objective":"weighted"}`))
	f.Add([]byte(`{"tenants":[{"kernel":"fft","weight":2.5},{"kernel":"sort"}],"budgets":{"shared":2048}}`))
	f.Add([]byte(`{"tenants":[{"kernel":"vecadd"}],"menu_size":8,"max_candidates":50,"parallelism":4}`))
	f.Add([]byte(`{"arch":" Tesla-K80 ","mix":"balanced"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeFleetRequest(data)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) && !errors.Is(err, hmserr.ErrUnknownStrategy) &&
				!errors.Is(err, fleet.ErrUnknownMix) {
				t.Fatalf("decode error %v wraps none of ErrBadRequest/ErrUnknownStrategy/ErrUnknownMix", err)
			}
			if s := statusOf(err); s < 400 || s >= 500 {
				t.Fatalf("decode error %v maps to status %d (want 4xx)", err, s)
			}
			return
		}
		// Accepted requests are bounded and fully canonical.
		if len(req.Tenants) == 0 || len(req.Tenants) > MaxTenants {
			t.Fatalf("accepted %d tenants", len(req.Tenants))
		}
		if req.Mix != "" {
			t.Fatalf("accepted request still carries mix %q after expansion", req.Mix)
		}
		if req.Arch != canonicalArch(req.Arch) {
			t.Fatalf("accepted arch %q is not canonical (%q)", req.Arch, canonicalArch(req.Arch))
		}
		seen := map[string]bool{}
		for _, tn := range req.Tenants {
			if tn.Kernel == "" || len(tn.Kernel) > 256 || tn.Name == "" || len(tn.Name) > 64 {
				t.Fatalf("accepted tenant %+v", tn)
			}
			if seen[tn.Name] {
				t.Fatalf("accepted duplicate tenant name %q", tn.Name)
			}
			seen[tn.Name] = true
			if tn.Scale < 1 || tn.Scale > MaxScale || len(tn.Sample) > MaxSpecLen {
				t.Fatalf("accepted tenant bounds %+v", tn)
			}
			if !(tn.Weight > 0 && tn.Weight <= 1000) {
				t.Fatalf("accepted weight %v", tn.Weight)
			}
		}
		for name, v := range req.Budgets {
			sp, perr := gpu.ParseSpace(name)
			if perr != nil || sp.LongString() != name || v < -1 {
				t.Fatalf("accepted non-canonical budget %q=%d", name, v)
			}
		}
		if req.MenuSize < 1 || req.MenuSize > fleet.MaxMenuSize {
			t.Fatalf("accepted menu_size %d", req.MenuSize)
		}
		if req.Solver != "" {
			sv, serr := fleet.ParseSolver(req.Solver)
			if serr != nil || sv.Spec() != req.Solver {
				t.Fatalf("accepted non-canonical solver %q", req.Solver)
			}
		}
		if obj, oerr := fleet.ParseObjective(req.Objective); oerr != nil || obj.String() != req.Objective {
			t.Fatalf("accepted non-canonical objective %q", req.Objective)
		}
	})
}

// TestHostileBodiesNever5xx drives every hostile seed through the real
// handler stack: each must map to a 4xx — never a panic, never a 5xx.
func TestHostileBodiesNever5xx(t *testing.T) {
	s := newTestServer(t, Options{})
	for i, body := range hostileRankBodies {
		for _, path := range []string{"/v1/rank", "/v1/predict"} {
			rr := doJSON(t, s, "POST", path, body)
			if rr.Code < 400 || rr.Code >= 500 {
				t.Errorf("seed %d on %s: status %d (want 4xx): %.120s",
					i, path, rr.Code, rr.Body.String())
			}
		}
	}
	for i, body := range hostileFleetBodies {
		rr := doJSON(t, s, "POST", "/v1/fleet/rank", body)
		if rr.Code < 400 || rr.Code >= 500 {
			t.Errorf("fleet seed %d: status %d (want 4xx): %.120s",
				i, rr.Code, rr.Body.String())
		}
	}
}
