package advisor

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/kernels"
)

// goldenRun is the pinned projection of one search: the kept ranking and
// the coverage record. Deduped is zeroed for budgeted runs, whose cache
// hits depend on where the budget cut the search.
type goldenRun struct {
	Spec      string
	Ranked    [][3]any // placement, predicted ns, index
	Evaluated int
	Pruned    int
	Deduped   int
	Total     int
	Budget    bool
}

// TestSearchResultsGolden pins every strategy's complete output on every
// bundled kernel and arch: an untrained full model profiled on the kernel's
// sample, TopK 10, exhaustive / greedy / beam-4 at parallelism 1 and 3,
// plus budget-stopped runs (MaxCandidates 25, parallelism 1). One SHA-256
// per (arch, kernel) over the JSON of every run is compared with
// testdata/search_results.golden. Under -race or -short only k80 runs.
func TestSearchResultsGolden(t *testing.T) {
	golden := readSearchGolden(t)
	arches := []string{"k80", "fermi", "hbm", "chiplet"}
	if raceEnabled || testing.Short() {
		arches = arches[:1]
	}
	ctx := context.Background()
	for _, arch := range arches {
		cfg := gpu.MustLookup(arch)
		a := &Advisor{Cfg: cfg, Model: core.NewModel(cfg, core.FullOptions())}
		for _, name := range kernels.Names() {
			k := kernels.MustGet(name)
			tr := k.Trace(1)
			sample, err := k.SamplePlacement(tr)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch, name, err)
			}
			pr, err := a.PredictorContext(ctx, tr, sample)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch, name, err)
			}
			h := sha256.New()
			run := func(opt RankOptions) {
				res, err := Search(ctx, cfg, tr, pr.Clone(), opt, nil)
				budget := errors.Is(err, hmserr.ErrBudgetExceeded)
				if err != nil && !budget {
					t.Fatalf("%s/%s/%s: %v", arch, name, opt.Strategy.Spec(), err)
				}
				g := goldenRun{Spec: res.Strategy, Evaluated: res.Evaluated, Pruned: res.Pruned,
					Deduped: res.Deduped, Total: res.Total, Budget: budget}
				if opt.MaxCandidates > 0 {
					g.Deduped = 0
				}
				for _, r := range res.Ranked {
					g.Ranked = append(g.Ranked, [3]any{r.Placement.String(), r.PredictedNS, r.Index})
				}
				b, err := json.Marshal(g)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(append(b, '\n'))
			}
			for _, strat := range goldenStrategies() {
				for _, par := range []int{1, 3} {
					run(RankOptions{TopK: 10, Parallelism: par, Strategy: strat})
				}
				run(RankOptions{TopK: 10, MaxCandidates: 25, Parallelism: 1, Strategy: strat})
			}
			key := arch + " " + name
			if got := hex.EncodeToString(h.Sum(nil)); got != golden[key] {
				t.Errorf("search results moved: %s %s (golden %q)", key, got, golden[key])
			}
		}
	}
}

// readSearchGolden loads "arch kernel sha256" lines.
func readSearchGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/search_results.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fs := strings.Fields(sc.Text()); len(fs) == 3 {
			out[fs[0]+" "+fs[1]] = fs[2]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
