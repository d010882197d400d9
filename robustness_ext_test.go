package gpuhms

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// untrainedAdvisor skips the (slow, irrelevant here) overlap training: the
// robustness contracts under test hold for any coefficient vector.
func untrainedAdvisor() *Advisor {
	cfg := MustLookupArch("k80")
	return &Advisor{Cfg: cfg, Model: NewModel(cfg, FullModelOptions())}
}

// TestRankContextCancelsPromptly pins the acceptance criterion: canceling
// RankPlacements' context returns ctx.Err() within 100ms even while the
// profiling simulation of a large kernel is in flight. mriq at scale 2
// simulates for ~200ms of wall clock here, so the 5ms cancel lands mid-run.
func TestRankContextCancelsPromptly(t *testing.T) {
	adv := untrainedAdvisor()
	spec, err := Kernel("mriq")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Trace(2)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := adv.RankPlacements(ctx, tr, sample, RankOptions{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled RankPlacements returned partial results without a budget error")
	}
	if elapsed > 5*time.Millisecond+100*time.Millisecond {
		t.Errorf("cancellation took %v, want < 100ms after cancel", elapsed)
	}

	// Pre-canceled contexts fail before any work happens.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	start = time.Now()
	if _, err := adv.RankPlacements(done, tr, sample, RankOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: got %v", err)
	}
	if e := time.Since(start); e > 100*time.Millisecond {
		t.Errorf("pre-canceled RankPlacements took %v", e)
	}
}

// TestRankTopKAgreesWithFullRank pins the budget-K acceptance criterion on
// every bundled kernel: TopK ranking keeps at most K entries, stays sorted,
// and its winner is the unbudgeted ranking's winner.
func TestRankTopKAgreesWithFullRank(t *testing.T) {
	adv := untrainedAdvisor()
	const k = 3
	for _, name := range Kernels() {
		t.Run(name, func(t *testing.T) {
			spec, err := Kernel(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := spec.Trace(1)
			sample, err := spec.SamplePlacement(tr)
			if err != nil {
				t.Fatal(err)
			}
			fullRes, err := adv.RankPlacements(context.Background(), tr, sample, RankOptions{})
			if err != nil {
				t.Fatalf("full ranking: %v", err)
			}
			topkRes, err := adv.RankPlacements(context.Background(), tr, sample, RankOptions{TopK: k})
			if err != nil {
				t.Fatalf("TopK ranking: %v", err)
			}
			full, topk := fullRes.Ranked, topkRes.Ranked
			if len(topk) > k {
				t.Fatalf("TopK=%d kept %d entries", k, len(topk))
			}
			if want := min(k, len(full)); len(topk) != want {
				t.Fatalf("TopK kept %d of %d, want %d", len(topk), len(full), want)
			}
			for i := range topk {
				if math.IsNaN(topk[i].PredictedNS) || topk[i].PredictedNS <= 0 {
					t.Fatalf("insane prediction %g", topk[i].PredictedNS)
				}
				// Ties may order differently; predicted times must match
				// the full ranking's head exactly.
				if topk[i].PredictedNS != full[i].PredictedNS {
					t.Fatalf("topk[%d] = %.6f ns, full[%d] = %.6f ns",
						i, topk[i].PredictedNS, i, full[i].PredictedNS)
				}
			}
			if !topk[0].Placement.Equal(full[0].Placement) &&
				topk[0].PredictedNS != full[0].PredictedNS {
				t.Fatalf("different winner: %v vs %v", topk[0].Placement, full[0].Placement)
			}
		})
	}
}

func TestRankBudgetReturnsTypedPartial(t *testing.T) {
	adv := untrainedAdvisor()
	spec, err := Kernel("stencil2d")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Exhaustive(), GreedyStrategy()} {
		res, err := adv.RankPlacements(context.Background(), tr, sample,
			RankOptions{MaxCandidates: 2, Strategy: strat})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: got %v, want ErrBudgetExceeded", strat.Spec(), err)
		}
		if res == nil || res.Evaluated != 2 || len(res.Ranked) != 2 {
			t.Fatalf("%s: partial result %+v, want 2 evaluated and ranked", strat.Spec(), res)
		}
		for _, r := range res.Ranked {
			if math.IsNaN(r.PredictedNS) || r.PredictedNS <= 0 {
				t.Fatalf("%s: insane partial prediction %g", strat.Spec(), r.PredictedNS)
			}
		}
	}
}

// TestFacadeGuardConvertsPanics: a misassembled advisor (nil model) must
// surface as an error, not a panic escaping the public API.
func TestFacadeGuardConvertsPanics(t *testing.T) {
	adv := &Advisor{Cfg: MustLookupArch("k80")} // Model deliberately nil
	spec, err := Kernel("stencil2d")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = adv.RankPlacements(context.Background(), tr, sample, RankOptions{})
	if err == nil {
		t.Fatal("nil-model advisor returned no error")
	}
	if !strings.Contains(err.Error(), "internal error") {
		t.Errorf("panic not converted by the facade guard: %v", err)
	}
}

func TestAdvisorValidatesConfig(t *testing.T) {
	if _, err := NewAdvisor(nil); err == nil {
		t.Error("NewAdvisor(nil) returned no error")
	}
	bad := *MustLookupArch("k80")
	bad.WarpSize = 0
	if _, err := NewAdvisor(&bad); err == nil {
		t.Error("NewAdvisor with zero warp size returned no error")
	}

	spec, err := Kernel("stencil2d")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	adv := &Advisor{Cfg: &bad, Model: NewModel(MustLookupArch("k80"), FullModelOptions())}
	if _, err := adv.RankPlacements(context.Background(), tr, sample, RankOptions{}); err == nil {
		t.Error("RankPlacements under an invalid config returned no error")
	}
}

func TestPredictorContextNilTrace(t *testing.T) {
	adv := untrainedAdvisor()
	if _, err := adv.Predictor(nil, nil); !errors.Is(err, ErrInvalidTrace) {
		t.Errorf("nil trace: got %v, want ErrInvalidTrace", err)
	}
}
