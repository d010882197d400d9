package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"gpuhms/internal/service"
)

// shape is a request with its seed-chosen knobs (strategy, top_k, solver)
// left out: what must not change between seeds.
func shape(t *testing.T, r request) string {
	t.Helper()
	switch r.kind {
	case kindRank:
		req, err := service.DecodeRankRequest(r.body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("rank %s %s %d", req.Arch, req.Kernel, req.Scale)
	case kindCompare:
		req, err := service.DecodeCompareRequest(r.body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("compare %s %v %s %d", req.Kernel, req.Arches, req.Strategy, req.TopK)
	case kindFleet:
		req, err := service.DecodeFleetRequest(r.body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("fleet %s %v", req.Arch, req.Tenants)
	}
	return r.method + " " + r.path
}

func shapes(t *testing.T, list []request) []string {
	out := make([]string, len(list))
	for i, r := range list {
		out[i] = shape(t, r)
	}
	sort.Strings(out)
	return out
}

func TestPlanSameSeedSameRequests(t *testing.T) {
	for _, w := range workloadNames {
		a, err := newPlan(w, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(w, 7, false)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different plans", w)
		}
	}
}

func TestPlanSeedChangesOrderKeepsProperties(t *testing.T) {
	for _, w := range workloadNames {
		a, err := newPlan(w, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(w, 2, false)
		if reflect.DeepEqual(a.list, b.list) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", w)
		}
		if !reflect.DeepEqual(kindShares(a.list), kindShares(b.list)) {
			t.Errorf("%s: kind shares %v vs %v", w, kindShares(a.list), kindShares(b.list))
		}
		if w == cachedMix {
			if !reflect.DeepEqual(shapes(t, a.warm), shapes(t, b.warm)) {
				t.Errorf("%s: prewarm sets differ beyond their knobs", w)
			}
			continue
		}
		if !reflect.DeepEqual(shapes(t, a.list), shapes(t, b.list)) {
			t.Errorf("%s: request sets differ beyond order and knobs", w)
		}
		ra, err := repeatShare(a.list)
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := repeatShare(b.list)
		if ra != rb {
			t.Errorf("%s: profile repeat share %v vs %v", w, ra, rb)
		}
	}
}

// TestPlannedShares pins the shares that define each cold workload.
func TestPlannedShares(t *testing.T) {
	for w, band := range map[string][2]float64{coldProfile: {0.6, 0.7}, searchExhaustive: {0, 0}} {
		p, err := newPlan(w, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := repeatShare(p.list)
		if err != nil {
			t.Fatal(err)
		}
		if got < band[0] || got > band[1] {
			t.Errorf("%s: planned profile repeat share %.3f outside %v", w, got, band)
		}
	}
	p, _ := newPlan(coldProfile, 1, false)
	sh := kindShares(p.list)
	if sh[kindCompare] < 0.08 || sh[kindCompare] > 0.12 || sh[kindFleet] < 0.04 || sh[kindFleet] > 0.06 {
		t.Errorf("cold-profile kind shares %v, want ~10%% compare and ~5%% fleet", sh)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs a tiny traced pass of every workload: every output check,
// the replay's top-1 agreement and the workload self-checks must pass, and
// the printed metrics must be exactly those BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four advisors per workload")
	}
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := runConfig{workload: w, seed: 3, window: time.Millisecond, trace: true, tiny: true, setups: 1}
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("failures %v, self-checks %v", res.failures, res.selfCheck)
			}
			if got := keys(jsonMetrics(cfg, res)); !reflect.DeepEqual(got, perLayer) {
				t.Errorf("traced metrics %v, BENCHMARK.json per_layer %v", got, perLayer)
			}
			cfg.trace = false
			if got := keys(jsonMetrics(cfg, res)); !reflect.DeepEqual(got, endToEnd) {
				t.Errorf("untraced metrics %v, BENCHMARK.json end_to_end %v", got, endToEnd)
			}
		})
	}
}

// TestStealClock pins how the clock takes the stolen share out: over a long
// interval the share is steal / (steal + busy) between interpolated samples,
// and a short interval takes the share of the stealSpan around it.
func TestStealClock(t *testing.T) {
	s := time.Second
	c := &stealClock{samples: []stealSample{
		{0, 0, 0},
		{s, 0, 200},       // no steal
		{2 * s, 100, 300}, // half the CPU time stolen
		{3 * s, 100, 400},
	}}
	if got := c.share(0, s); got != 0 {
		t.Errorf("share over an unstolen second = %v, want 0", got)
	}
	if got := c.less(s, 2*s); got != s/2 {
		t.Errorf("less over a half-stolen second = %v, want %v", got, s/2)
	}
	if got := c.share(1500*time.Millisecond, 1500*time.Millisecond+time.Microsecond); got != 0.5 {
		t.Errorf("share of a short interval = %v, want the surrounding 0.5", got)
	}
	if got, want := c.share(0, 3*s), 100.0/500; got != want {
		t.Errorf("share over the whole run = %v, want %v", got, want)
	}
}

// TestGoldenCompareNeedsBothArches fails a tablelookup compare reply that
// drops one of the two arches whose top-1 answers diverge.
func TestGoldenCompareNeedsBothArches(t *testing.T) {
	r := &request{kind: kindCompare, body: []byte(`{"kernel":"tablelookup","arches":["k80","chiplet"]}`)}
	row := func(p string) []service.RankedPlacement {
		return []service.RankedPlacement{{Placement: p, PredictedNS: 1}}
	}
	both := &reply{rankings: []ranking{{arch: "k80", rows: row(goldenTableK80)}, {arch: "chiplet", rows: row(goldenTableChiplet)}}}
	if err := checkGolden(r, both); err != nil {
		t.Errorf("golden reply: %v", err)
	}
	for _, rep := range []*reply{
		{rankings: both.rankings[:1]},
		{rankings: both.rankings[1:]},
		{rankings: []ranking{{arch: "k80", rows: row(goldenTableChiplet)}, both.rankings[1]}},
	} {
		if checkGolden(r, rep) == nil {
			t.Errorf("reply %+v passed the golden check", rep.rankings)
		}
	}
}
