package advisor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"gpuhms/internal/core"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
)

// goldenKernels is the kernel set of the cross-strategy suite: the full
// corpus, trimmed under the race detector where prediction is an order of
// magnitude slower.
func goldenKernels() []string {
	if raceEnabled {
		return []string{"fft", "kmeans", "nbody", "neuralnet", "pathfinder"}
	}
	return kernels.Names()
}

// strategies under test, by canonical spec.
func goldenStrategies() []Strategy {
	return []Strategy{Exhaustive(), Greedy(), Beam(4)}
}

// searchKernel runs one search for the golden suite.
func searchKernel(t *testing.T, a *Advisor, name string, opt RankOptions) (*RankResult, error) {
	t.Helper()
	k := kernels.MustGet(name)
	tr := k.Trace(1)
	sample, err := k.SamplePlacement(tr)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return a.RankPlacements(context.Background(), tr, sample, opt)
}

// TestStrategyDeterminism pins the tentpole guarantee across every strategy:
// for every bundled kernel and every strategy, the entire RankResult —
// placements, exact predicted times, enumeration indices, coverage — is
// byte-identical as JSON between a sequential and an 8-worker search.
func TestStrategyDeterminism(t *testing.T) {
	a := testAdvisor(t)
	for _, name := range goldenKernels() {
		for _, strat := range goldenStrategies() {
			base, err := searchKernel(t, a, name, RankOptions{TopK: 3, Parallelism: 1, Strategy: strat})
			if err != nil {
				t.Fatalf("%s/%s workers=1: %v", name, strat.Spec(), err)
			}
			want, err := json.Marshal(base)
			if err != nil {
				t.Fatal(err)
			}
			got8, err := searchKernel(t, a, name, RankOptions{TopK: 3, Parallelism: 8, Strategy: strat})
			if err != nil {
				t.Fatalf("%s/%s workers=8: %v", name, strat.Spec(), err)
			}
			got, err := json.Marshal(got8)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s/%s: 8-worker result differs from sequential:\n got %s\nwant %s",
					name, strat.Spec(), got, want)
			}
			if base.Strategy != strat.Spec() {
				t.Errorf("%s: result strategy %q, want %q", name, base.Strategy, strat.Spec())
			}
		}
	}
}

// greedyRegret pins the measured top-1 regret of the greedy strategy on the
// kernels where coordinate descent lands in a local minimum instead of the
// exhaustive optimum. Everywhere else greedy must agree exactly.
var greedyRegret = map[string]float64{
	"spmv": 1.007, // measured 9552.32 / 9494.25 ns = 1.0061
}

// TestStrategyTop1Agreement pins search quality: on every bundled kernel,
// beam-4 finds the exhaustive search's top-1 placement exactly, and greedy
// either agrees or stays within its pinned regret — while evaluating no more
// candidates than the exhaustive search.
func TestStrategyTop1Agreement(t *testing.T) {
	a := testAdvisor(t)
	for _, name := range goldenKernels() {
		ex, err := searchKernel(t, a, name, RankOptions{TopK: 1})
		if err != nil {
			t.Fatalf("%s exhaustive: %v", name, err)
		}
		best := ex.Ranked[0]
		for _, strat := range []Strategy{Greedy(), Beam(4)} {
			got, err := searchKernel(t, a, name, RankOptions{TopK: 1, Parallelism: 4, Strategy: strat})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, strat.Spec(), err)
			}
			if len(got.Ranked) == 0 {
				t.Fatalf("%s/%s: empty ranking", name, strat.Spec())
			}
			agrees := got.Ranked[0].Index == best.Index && got.Ranked[0].PredictedNS == best.PredictedNS
			if regret, ok := greedyRegret[name]; ok && strat.Spec() == "greedy" {
				if got.Ranked[0].PredictedNS > best.PredictedNS*regret {
					t.Errorf("%s/greedy: top-1 %.2f ns exceeds pinned regret %.3fx of exhaustive %.2f ns",
						name, got.Ranked[0].PredictedNS, regret, best.PredictedNS)
				}
			} else if !agrees {
				t.Errorf("%s/%s: top-1 index %d (%.2f ns), exhaustive %d (%.2f ns)",
					name, strat.Spec(), got.Ranked[0].Index, got.Ranked[0].PredictedNS,
					best.Index, best.PredictedNS)
			}
			if got.Evaluated > ex.Evaluated {
				t.Errorf("%s/%s: evaluated %d > exhaustive %d",
					name, strat.Spec(), got.Evaluated, ex.Evaluated)
			}
			if got.Total != ex.Total {
				t.Errorf("%s/%s: total %d, want %d", name, strat.Spec(), got.Total, ex.Total)
			}
		}
	}
}

// goldenSpmvTop1NS is the K80 spmv exhaustive top-1 prediction: refactors of
// the model or the search engine must keep it bit-identical.
const goldenSpmvTop1NS = 9494.25441100835

// TestGoldenSpmvTop1 pins the golden prediction exactly (float ==).
func TestGoldenSpmvTop1(t *testing.T) {
	res, err := searchKernel(t, testAdvisor(t), "spmv", RankOptions{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Ranked[0].PredictedNS; got != goldenSpmvTop1NS {
		t.Errorf("k80 spmv exhaustive top-1 %v ns, golden %v", got, goldenSpmvTop1NS)
	}
}

// TestStrategyEvaluatesFewer pins the point of sub-exhaustive search: on the
// largest bundled space (spmv, 288 legal placements) greedy and beam-4
// evaluate a small fraction of the space.
func TestStrategyEvaluatesFewer(t *testing.T) {
	a := testAdvisor(t)
	name := "spmv"
	if raceEnabled {
		name = "blackscholes" // 216 legal placements, cheaper predictions
	}
	for _, strat := range []Strategy{Greedy(), Beam(4)} {
		res, err := searchKernel(t, a, name, RankOptions{TopK: 1, Strategy: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat.Spec(), err)
		}
		if res.Evaluated*2 >= res.Total {
			t.Errorf("%s on %s: evaluated %d of %d — expected under half the space",
				strat.Spec(), name, res.Evaluated, res.Total)
		}
	}
}

// TestStrategyBudget pins uniform budget semantics: under every strategy, a
// MaxCandidates budget stops the search after exactly that many predictions
// and surfaces a *hmserr.BudgetError with true coverage, alongside the
// partial result.
func TestStrategyBudget(t *testing.T) {
	a := testAdvisor(t)
	k := kernels.MustGet("kmeans")
	tr := k.Trace(1)
	total := placement.CountLegal(tr, a.Cfg)
	for _, strat := range goldenStrategies() {
		for _, workers := range []int{1, 4} {
			res, err := searchKernel(t, a, "kmeans",
				RankOptions{MaxCandidates: 3, Parallelism: workers, Strategy: strat})
			var be *hmserr.BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("%s workers=%d: err = %v, want *hmserr.BudgetError", strat.Spec(), workers, err)
			}
			if be.Evaluated != 3 || be.Total != total {
				t.Errorf("%s workers=%d: coverage %d/%d, want 3/%d",
					strat.Spec(), workers, be.Evaluated, be.Total, total)
			}
			if res == nil || res.Evaluated != 3 || len(res.Ranked) != 3 {
				t.Errorf("%s workers=%d: partial result %+v, want 3 evaluated+ranked",
					strat.Spec(), workers, res)
			}
		}
	}
}

// TestStrategyPreCanceled pins cancellation precedence for every strategy: a
// pre-canceled context yields ctx.Err() and a nil result.
func TestStrategyPreCanceled(t *testing.T) {
	a := testAdvisor(t)
	k := kernels.MustGet("kmeans")
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
	for _, strat := range goldenStrategies() {
		res, err := Search(ctx, a.Cfg, tr, pr, RankOptions{Parallelism: 4, Strategy: strat}, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", strat.Spec(), err)
		}
		if res != nil {
			t.Errorf("%s: canceled search returned a result", strat.Spec())
		}
	}
}

// TestParseStrategy pins the wire-spec grammar and its error class.
func TestParseStrategy(t *testing.T) {
	good := []struct{ spec, want string }{
		{"", "exhaustive"},
		{"exhaustive", "exhaustive"},
		{" Exhaustive ", "exhaustive"},
		{"greedy", "greedy"},
		{"GREEDY", "greedy"},
		{"beam", "beam-4"},
		{"beam-1", "beam-1"},
		{"beam-16", "beam-16"},
		{fmt.Sprintf("beam-%d", MaxBeamWidth), fmt.Sprintf("beam-%d", MaxBeamWidth)},
	}
	for _, tc := range good {
		s, err := ParseStrategy(tc.spec)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", tc.spec, err)
			continue
		}
		if s.Spec() != tc.want {
			t.Errorf("ParseStrategy(%q).Spec() = %q, want %q", tc.spec, s.Spec(), tc.want)
		}
	}
	bad := []string{
		"annealing", "beam-", "beam-0", "beam--3", "beam-4x", "beam-4.5",
		fmt.Sprintf("beam-%d", MaxBeamWidth+1), "exhaustive greedy",
		"candidates", // engine-only: no wire spec selects a candidate list
	}
	for _, spec := range bad {
		if _, err := ParseStrategy(spec); !errors.Is(err, hmserr.ErrUnknownStrategy) {
			t.Errorf("ParseStrategy(%q): err = %v, want ErrUnknownStrategy", spec, err)
		}
	}
	// Constructor clamping mirrors the parser's range.
	if got := Beam(0).Spec(); got != fmt.Sprintf("beam-%d", DefaultBeamWidth) {
		t.Errorf("Beam(0).Spec() = %q", got)
	}
	if got := Beam(MaxBeamWidth + 1).Spec(); got != fmt.Sprintf("beam-%d", MaxBeamWidth) {
		t.Errorf("Beam(max+1).Spec() = %q", got)
	}
}

// TestMixedStrategyRace hammers one shared Advisor with concurrent searches
// under different strategies and worker counts — the service's steady state.
// Meaningful under -race; also asserts each search's determinism envelope
// (its strategy echo and a non-empty ranking).
func TestMixedStrategyRace(t *testing.T) {
	a := testAdvisor(t)
	name := "neuralnet"
	k := kernels.MustGet(name)
	tr := k.Trace(1)
	sample, err := k.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, strat := range []Strategy{Exhaustive(), Greedy(), Beam(2), Beam(4), Exhaustive(), Greedy()} {
		wg.Add(1)
		go func(strat Strategy, workers int) {
			defer wg.Done()
			res, err := a.RankPlacements(context.Background(), tr, sample,
				RankOptions{TopK: 2, Parallelism: workers, Strategy: strat})
			if err != nil {
				t.Errorf("%s: %v", strat.Spec(), err)
				return
			}
			if res.Strategy != strat.Spec() || len(res.Ranked) == 0 {
				t.Errorf("%s: got strategy %q with %d rows", strat.Spec(), res.Strategy, len(res.Ranked))
			}
		}(strat, 1+i%3)
	}
	wg.Wait()
}

// TestPlacementBoundAdmissible pins the beam pruner's safety: for every
// bundled kernel and every legal placement, the bound never exceeds the
// predictor's actual time — with the whole placement fixed and with every
// proper prefix fixed (the form the beam search prunes on).
func TestPlacementBoundAdmissible(t *testing.T) {
	a := testAdvisor(t)
	names := goldenKernels()
	if raceEnabled {
		names = []string{"fft", "kmeans", "pathfinder"}
	}
	for _, name := range names {
		k := kernels.MustGet(name)
		tr := k.Trace(1)
		sample, err := k.SamplePlacement(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pr, err := a.PredictorContext(context.Background(), tr, sample)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bound := core.NewPlacementBound(pr)
		checked := 0
		placement.EnumerateSeq(tr, a.Cfg, func(pl *placement.Placement) bool {
			p, err := pr.Predict(pl)
			if err != nil {
				t.Fatalf("%s: predict %s: %v", name, pl.Format(tr), err)
			}
			for fixed := 0; fixed <= len(pl.Spaces); fixed++ {
				if b := bound.Bound(pl, fixed); b > p.TimeNS {
					t.Fatalf("%s: bound(%s, fixed=%d) = %.4f ns > predicted %.4f ns",
						name, pl.Format(tr), fixed, b, p.TimeNS)
				}
			}
			checked++
			return true
		})
		if checked == 0 {
			t.Fatalf("%s: no legal placements enumerated", name)
		}
	}
}
