package advisor

import (
	"context"
	"errors"
	"sync"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/kernels"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
)

var (
	advOnce sync.Once
	advErr  error
	adv     *Advisor
)

// testAdvisor trains one advisor per test binary — training is the expensive
// part, and every ranking test can share the read-only trained model.
func testAdvisor(t *testing.T) *Advisor {
	t.Helper()
	advOnce.Do(func() { adv, advErr = New(gpu.MustLookup("k80")) })
	if advErr != nil {
		t.Fatal(advErr)
	}
	return adv
}

// TestRankParallelDeterminism pins the tentpole guarantee: for every bundled
// kernel, the parallel ranking — placements, predicted times (exact float
// equality), and enumeration indices — is identical to the sequential one
// for any worker count, including worker counts above the space size.
func TestRankParallelDeterminism(t *testing.T) {
	a := testAdvisor(t)
	ctx := context.Background()
	names := kernels.Names()
	if raceEnabled {
		// The full corpus under the race detector blows the package test
		// timeout on small machines; a subset spanning tiny-to-medium
		// spaces keeps the concurrency coverage.
		names = []string{"fft", "nbody", "neuralnet", "pathfinder"}
	}
	for _, name := range names {
		k := kernels.MustGet(name)
		tr := k.Trace(1)
		sample, err := k.SamplePlacement(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pr, err := a.PredictorContext(ctx, tr, sample)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, topK := range []int{0, 3} {
			baseRes, err := Search(ctx, a.Cfg, tr, pr, RankOptions{TopK: topK, Parallelism: 1}, nil)
			if err != nil {
				t.Fatalf("%s sequential: %v", name, err)
			}
			base := baseRes.Ranked
			for _, workers := range []int{2, 8} {
				res, err := Search(ctx, a.Cfg, tr, pr, RankOptions{TopK: topK, Parallelism: workers}, nil)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				got := res.Ranked
				if len(got) != len(base) {
					t.Fatalf("%s workers=%d topK=%d: %d ranked, want %d",
						name, workers, topK, len(got), len(base))
				}
				for i := range base {
					if !got[i].Placement.Equal(base[i].Placement) ||
						got[i].PredictedNS != base[i].PredictedNS ||
						got[i].Index != base[i].Index {
						t.Fatalf("%s workers=%d topK=%d: rank %d = {%s %v %d}, want {%s %v %d}",
							name, workers, topK, i,
							got[i].Placement.Format(tr), got[i].PredictedNS, got[i].Index,
							base[i].Placement.Format(tr), base[i].PredictedNS, base[i].Index)
					}
				}
			}
		}
	}
}

// TestRankParallelBudget pins the shared-budget semantics: with N workers
// racing for MaxCandidates tokens, exactly MaxCandidates predictions run and
// the error carries Evaluated/Total coverage, same as the sequential search.
func TestRankParallelBudget(t *testing.T) {
	a := testAdvisor(t)
	ctx := context.Background()
	k := kernels.MustGet("spmv")
	tr := k.Trace(1)
	sample, err := k.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := a.PredictorContext(ctx, tr, sample)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewCollector()
	res, err := Search(ctx, a.Cfg, tr, pr,
		RankOptions{MaxCandidates: 5, Parallelism: 4}, rec)
	if !errors.Is(err, hmserr.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
	var be *hmserr.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *hmserr.BudgetError", err)
	}
	total := placement.CountLegal(tr, a.Cfg)
	if be.Evaluated != 5 || be.Total != total {
		t.Errorf("coverage = %d/%d, want 5/%d", be.Evaluated, be.Total, total)
	}
	if res == nil || len(res.Ranked) != 5 {
		t.Errorf("partial result %+v, want 5 ranked placements", res)
	}
	last := rec.Snapshot().Search
	if last == nil || !last.Done || last.Evaluated != 5 || last.Total != total {
		t.Errorf("final progress = %+v, want Done 5/%d", last, total)
	}
}

// TestRankParallelPreCanceled pins cancellation precedence: a canceled
// context yields ctx.Err() and no ranking, regardless of worker count.
func TestRankParallelPreCanceled(t *testing.T) {
	a := testAdvisor(t)
	k := kernels.MustGet("spmv")
	tr := k.Trace(1)
	sample, err := k.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := a.PredictorContext(context.Background(), tr, sample)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Search(ctx, a.Cfg, tr, pr, RankOptions{Parallelism: 4}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("canceled rank returned %d placements", len(res.Ranked))
	}
}

// TestRankParallelWhileServing hammers the advisor the way the service does:
// one parallel ranking in flight while other goroutines predict through
// their own predictors of the same trained model. Meaningful under -race.
func TestRankParallelWhileServing(t *testing.T) {
	a := testAdvisor(t)
	ctx := context.Background()
	name := "spmv"
	if raceEnabled {
		name = "neuralnet" // spmv's 288-candidate rank is minutes under -race
	}
	k := kernels.MustGet(name)
	tr := k.Trace(1)
	sample, err := k.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, err := a.PredictorContext(ctx, tr, sample)
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 20; j++ {
				if _, err := pr.Predict(sample); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	if _, err := a.RankPlacements(ctx, tr, sample, RankOptions{TopK: 5, Parallelism: 4}); err != nil {
		t.Error(err)
	}
	wg.Wait()
}
