package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/obs"
	"gpuhms/internal/service"
)

// TestUnsampledRequestsLeaveTimelineEmpty boots the service the way main
// does — advisors from buildAdvisors, the shared collector, request
// sampling off — and runs ten cold ranks. The timeline must stay empty (it
// is reserved for sampled requests), while the advisors' model metrics
// still reach /metrics.
func TestUnsampledRequestsLeaveTimelineEmpty(t *testing.T) {
	col := obs.NewCollector()
	cfg := gpu.MustLookup("k80")
	var model bytes.Buffer
	if err := core.NewModel(cfg, core.FullOptions()).Save(&model, cfg.Name); err != nil {
		t.Fatal(err)
	}
	advisors, err := buildAdvisors("k80", "", map[string]json.RawMessage{"k80": model.Bytes()}, col)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(advisors, service.Options{TraceSampleEvery: 0}, col)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	for _, k := range []string{"fft", "vecadd", "reduction", "sort", "triad",
		"histogram", "transpose", "md5hash", "scatteradd", "dct8x8"} {
		rr := httptest.NewRecorder()
		body := strings.NewReader(`{"kernel":"` + k + `","top_k":3}`)
		svc.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/rank", body))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", k, rr.Code, rr.Body)
		}
		if got := rr.Header().Get(service.HeaderCache); got != "miss" {
			t.Fatalf("%s: cache %q, want a cold miss", k, got)
		}
	}
	if n := col.Timeline().Len(); n != 0 {
		t.Errorf("unsampled requests left %d timeline events, want 0", n)
	}
	rr := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m := regexp.MustCompile(`(?m)^model_predictions_total (\d+)$`).FindStringSubmatch(rr.Body.String())
	if m == nil {
		t.Fatal("/metrics has no model_predictions_total")
	}
	if n, _ := strconv.Atoi(m[1]); n <= 0 {
		t.Errorf("model_predictions_total = %d, want > 0", n)
	}
}
