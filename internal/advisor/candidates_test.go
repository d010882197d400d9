package advisor

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// movesList builds the candidate list hmsplace ranks by default: the sample
// followed by its single-array moves, with the sample's predictor.
func movesList(t *testing.T, a *Advisor, name string) (*trace.Trace, *core.Predictor, []*placement.Placement) {
	t.Helper()
	k := kernels.MustGet(name)
	tr := k.Trace(1)
	sample, err := k.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := a.PredictorContext(context.Background(), tr, sample)
	if err != nil {
		t.Fatal(err)
	}
	list := []*placement.Placement{sample}
	placement.NewSpace(tr, a.Cfg).Neighbors(sample, 0, len(tr.Arrays),
		func(_ int64, _ int, next *placement.Placement) { list = append(list, next) })
	return tr, pr, list
}

// TestCandidatesMatchPredict pins that a candidate-list search predicts
// exactly the listed placements, each bit-identical to Predictor.Predict,
// and reports the list as its whole candidate space.
func TestCandidatesMatchPredict(t *testing.T) {
	a := testAdvisor(t)
	for _, name := range []string{"spmv", "kmeans", "fft"} {
		tr, pr, list := movesList(t, a, name)
		res, err := Search(context.Background(), a.Cfg, tr, pr,
			RankOptions{Parallelism: 1, Strategy: Candidates(list...)}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Strategy != "candidates" || res.Evaluated != len(list) || res.Total != len(list) ||
			len(res.Ranked) != len(list) {
			t.Fatalf("%s: strategy %q, evaluated %d, total %d, ranked %d; want candidates and %d each",
				name, res.Strategy, res.Evaluated, res.Total, len(res.Ranked), len(list))
		}
		want := map[string]float64{}
		for _, pl := range list {
			p, err := pr.Predict(pl)
			if err != nil {
				t.Fatalf("%s: predict %s: %v", name, pl.Format(tr), err)
			}
			want[pl.String()] = p.TimeNS
		}
		for i, r := range res.Ranked {
			w, ok := want[r.Placement.String()]
			if !ok {
				t.Errorf("%s: ranked %s is not in the list", name, r.Placement.Format(tr))
				continue
			}
			delete(want, r.Placement.String())
			if math.Float64bits(r.PredictedNS) != math.Float64bits(w) {
				t.Errorf("%s: %s predicted %v, Predict says %v", name, r.Placement.Format(tr), r.PredictedNS, w)
			}
			if i > 0 && faster(r.PredictedNS, r.Index, res.Ranked[i-1].PredictedNS, res.Ranked[i-1].Index) {
				t.Errorf("%s: row %d out of (predicted, index) order", name, i)
			}
		}
	}
}

// TestCandidatesDeterminism pins that a candidate-list ranking is identical
// for one and three workers, with and without a top-K cut.
func TestCandidatesDeterminism(t *testing.T) {
	a := testAdvisor(t)
	for _, name := range goldenKernels() {
		tr, pr, list := movesList(t, a, name)
		for _, topK := range []int{0, 3} {
			var out [2][]byte
			for i, workers := range []int{1, 3} {
				res, err := Search(context.Background(), a.Cfg, tr, pr,
					RankOptions{TopK: topK, Parallelism: workers, Strategy: Candidates(list...)}, nil)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if out[i], err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
			if string(out[0]) != string(out[1]) {
				t.Errorf("%s top=%d: 3-worker result differs from sequential:\n got %s\nwant %s",
					name, topK, out[1], out[0])
			}
		}
	}
}

// TestCandidatesBudget pins the budget contract for a list: exactly
// MaxCandidates predictions, and a *hmserr.BudgetError whose Total is the
// list's length.
func TestCandidatesBudget(t *testing.T) {
	a := testAdvisor(t)
	tr, pr, list := movesList(t, a, "spmv")
	for _, workers := range []int{1, 3} {
		res, err := Search(context.Background(), a.Cfg, tr, pr,
			RankOptions{MaxCandidates: 3, Parallelism: workers, Strategy: Candidates(list...)}, nil)
		var be *hmserr.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: err = %v, want *hmserr.BudgetError", workers, err)
		}
		if be.Evaluated != 3 || be.Total != len(list) {
			t.Errorf("workers=%d: coverage %d/%d, want 3/%d", workers, be.Evaluated, be.Total, len(list))
		}
		if res == nil || res.Evaluated != 3 || res.Total != len(list) || len(res.Ranked) != 3 {
			t.Errorf("workers=%d: partial result %+v, want 3 evaluated+ranked of %d", workers, res, len(list))
		}
	}
}

// TestCandidatesIllegal pins that an illegal listed placement fails the
// search with placement.Check's own error, before anything is predicted.
func TestCandidatesIllegal(t *testing.T) {
	a := testAdvisor(t)
	tr, pr, list := movesList(t, a, "spmv")
	bad := list[0].Clone()
	for i := range bad.Spaces {
		bad.Spaces[i] = gpu.Constant
	}
	want := placement.Check(tr, bad, a.Cfg)
	if want == nil {
		t.Fatal("all-constant spmv placement passed Check")
	}
	res, err := Search(context.Background(), a.Cfg, tr, pr,
		RankOptions{Parallelism: 3, Strategy: Candidates(append(list, bad)...)}, nil)
	if err == nil || err.Error() != want.Error() || !errors.Is(err, hmserr.ErrIllegalPlacement) {
		t.Errorf("err = %v, want the Check error %v", err, want)
	}
	if res != nil {
		t.Errorf("failed search returned a result")
	}
}
