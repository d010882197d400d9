package gpuhms

import (
	"bytes"
	"context"
	"testing"
)

// TestAdvisorSaveLoadRoundTrip trains once, saves, reloads, and checks the
// reloaded advisor predicts identically.
func TestAdvisorSaveLoadRoundTrip(t *testing.T) {
	cfg := MustLookupArch("k80")
	adv, err := NewAdvisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := adv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewAdvisorFromSaved(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}

	spec, _ := Kernel("convolution")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	r1, err := adv.RankPlacements(context.Background(), tr, sample, RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := loaded.RankPlacements(context.Background(), tr, sample, RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Ranked) != len(r2.Ranked) {
		t.Fatalf("rank lengths differ: %d vs %d", len(r1.Ranked), len(r2.Ranked))
	}
	for i := range r1.Ranked {
		if r1.Ranked[i].PredictedNS != r2.Ranked[i].PredictedNS {
			t.Fatalf("prediction %d differs after reload: %g vs %g",
				i, r1.Ranked[i].PredictedNS, r2.Ranked[i].PredictedNS)
		}
	}

	// Architecture mismatch rejected.
	var buf2 bytes.Buffer
	if err := adv.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := NewAdvisorFromSaved(MustLookupArch("fermi"), &buf2); err == nil {
		t.Error("loading a K80 model for Fermi must fail")
	}
}

// TestGreedyAgreesWithExhaustiveTop exercises the greedy strategy through
// the facade and requires its pick to be competitive with the exhaustive
// ranking's best.
func TestGreedyAgreesWithExhaustiveTop(t *testing.T) {
	cfg := MustLookupArch("k80")
	adv, err := NewAdvisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := Kernel("kmeans")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)

	ex, err := adv.RankPlacements(context.Background(), tr, sample, RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranked := ex.Ranked
	gr, err := adv.RankPlacements(context.Background(), tr, sample,
		RankOptions{TopK: 1, Strategy: GreedyStrategy()})
	if err != nil {
		t.Fatal(err)
	}
	best := gr.Ranked[0]
	if gr.Evaluated <= 0 || gr.Evaluated >= len(ranked) {
		t.Errorf("greedy used %d evals vs %d exhaustive", gr.Evaluated, len(ranked))
	}
	// Greedy may land in a local optimum, but within 10% of the global
	// predicted best for this separable-ish workload.
	if best.PredictedNS > ranked[0].PredictedNS*1.10 {
		t.Errorf("greedy pick %.0f ns, exhaustive best %.0f ns",
			best.PredictedNS, ranked[0].PredictedNS)
	}
}

// TestFermiEndToEnd runs the whole pipeline — simulate, train, predict —
// on the second architecture.
func TestFermiEndToEnd(t *testing.T) {
	cfg := MustLookupArch("fermi")
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	adv, err := NewAdvisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := Kernel("neuralnet")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	res, err := adv.RankPlacements(context.Background(), tr, sample, RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranked := res.Ranked
	if len(ranked) == 0 || ranked[0].PredictedNS <= 0 {
		t.Fatal("no usable Fermi predictions")
	}
	// Direction check: texture placement should still beat constant for
	// the divergent weights array.
	var texNS, constNS float64
	for _, r := range ranked {
		switch r.Placement.Format(tr) {
		case "weights:T,inputs:G,outputs:G":
			texNS = r.PredictedNS
		case "weights:C,inputs:G,outputs:G":
			constNS = r.PredictedNS
		}
	}
	if texNS == 0 || constNS == 0 {
		t.Fatal("expected placements missing from ranking")
	}
	if texNS >= constNS {
		t.Errorf("Fermi: texture (%.0f) should beat constant (%.0f) for divergent weights",
			texNS, constNS)
	}
}
