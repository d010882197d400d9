package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"gpuhms/internal/advisor"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
)

// sharedAdvisor trains one K80 advisor for the whole package's tests (model
// training is the expensive part and the advisor is read-only afterwards).
var (
	advOnce sync.Once
	advK80  *advisor.Advisor
	advErr  error
)

func testAdvisor(t *testing.T) *advisor.Advisor {
	t.Helper()
	advOnce.Do(func() {
		advK80, advErr = advisor.New(gpu.KeplerK80())
	})
	if advErr != nil {
		t.Fatalf("training advisor: %v", advErr)
	}
	return advK80
}

// squeezeProblem builds the shared-squeeze mix's problem once; solving it is
// cheap and side-effect-free, so tests share the instance.
var (
	squeezeOnce sync.Once
	squeezeProb *Problem
	squeezeErr  error
)

func testSqueezeProblem(t *testing.T) *Problem {
	t.Helper()
	adv := testAdvisor(t)
	squeezeOnce.Do(func() {
		mix, _ := GetMix("shared-squeeze")
		b := mix.BudgetsOn(adv.Cfg)
		squeezeProb, squeezeErr = NewProblem(context.Background(), adv, mix.Tenants, Options{Budgets: &b})
	})
	if squeezeErr != nil {
		t.Fatalf("building shared-squeeze problem: %v", squeezeErr)
	}
	return squeezeProb
}

// TestGoldenSharedSqueeze is the acceptance golden: on the bundled mix whose
// aggregate best-placement shared demand exceeds the 12 KiB shared budget,
// both fleet solvers must return capacity-feasible placements whose min-max
// slowdown beats naive independent first-fit placement.
func TestGoldenSharedSqueeze(t *testing.T) {
	p := testSqueezeProblem(t)

	var aggregate Demand
	for _, ts := range p.Tenants {
		aggregate = aggregate.Plus(ts.Menu[0].Demand)
	}
	if p.Budgets.Fits(Demand{}, aggregate) {
		t.Fatalf("mix is not contended: aggregate best demand %v fits budgets %v",
			aggregate, p.Budgets)
	}

	for _, solver := range []Solver{Greedy(), Beam(DefaultBeamWidth)} {
		res, err := p.Solve(context.Background(), solver, nil)
		if err != nil {
			t.Fatalf("%s: %v", solver.Spec(), err)
		}
		// Capacity-feasible: usage within every bounded budget.
		for i := range p.Budgets {
			if p.Budgets[i] >= 0 && res.Usage[i] > p.Budgets[i] {
				t.Errorf("%s: usage[%s] = %d exceeds budget %d",
					solver.Spec(), gpu.Spaces[i].LongString(), res.Usage[i], p.Budgets[i])
			}
		}
		if !res.Independent.Feasible {
			t.Fatalf("%s: first-fit baseline unexpectedly infeasible", solver.Spec())
		}
		if res.Independent.UnconstrainedFits {
			t.Errorf("%s: baseline claims unconstrained bests fit on a contended mix", solver.Spec())
		}
		// Golden bounds: the naive baseline starves a shared-hungry tenant
		// (sort suffers ~1.8x without shared memory), the fleet solvers
		// starve the tenant that barely cares (spmv, ~1.01x).
		if res.Independent.ObjectiveValue < 1.5 {
			t.Errorf("%s: naive baseline objective %.4f, want >= 1.5 (mix not contended enough)",
				solver.Spec(), res.Independent.ObjectiveValue)
		}
		if res.ObjectiveValue > 1.10 {
			t.Errorf("%s: fleet objective %.4f, want <= 1.10", solver.Spec(), res.ObjectiveValue)
		}
		if res.ObjectiveValue >= res.Independent.ObjectiveValue {
			t.Errorf("%s: fleet objective %.4f does not beat naive %.4f",
				solver.Spec(), res.ObjectiveValue, res.Independent.ObjectiveValue)
		}
		if len(res.Assignments) != len(p.Tenants) {
			t.Fatalf("%s: %d assignments for %d tenants", solver.Spec(), len(res.Assignments), len(p.Tenants))
		}
	}
}

// TestBeamAtLeastAsGoodAsGreedy: with a wide beam the search is closer to
// exhaustive over menus, so its objective must not exceed greedy's.
func TestBeamAtLeastAsGoodAsGreedy(t *testing.T) {
	p := testSqueezeProblem(t)
	g, err := p.Solve(context.Background(), Greedy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Solve(context.Background(), Beam(64), nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.ObjectiveValue > g.ObjectiveValue+1e-9 {
		t.Errorf("beam-64 objective %.6f worse than greedy %.6f", b.ObjectiveValue, g.ObjectiveValue)
	}
}

// TestBalancedMixUncontended: when every tenant's best fits, both solvers
// give everyone their unconstrained best (objective exactly 1.0) and the
// baseline agrees.
func TestBalancedMixUncontended(t *testing.T) {
	adv := testAdvisor(t)
	mix, ok := GetMix("balanced")
	if !ok {
		t.Fatal("balanced mix missing")
	}
	b := mix.BudgetsOn(adv.Cfg)
	p, err := NewProblem(context.Background(), adv, mix.Tenants, Options{Budgets: &b})
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []Solver{Greedy(), Beam(DefaultBeamWidth)} {
		res, err := p.Solve(context.Background(), solver, nil)
		if err != nil {
			t.Fatalf("%s: %v", solver.Spec(), err)
		}
		if !res.Independent.UnconstrainedFits {
			t.Errorf("%s: balanced mix should fit unconstrained", solver.Spec())
		}
		if res.ObjectiveValue != 1.0 {
			t.Errorf("%s: objective %.6f, want exactly 1.0", solver.Spec(), res.ObjectiveValue)
		}
		for _, a := range res.Assignments {
			if a.Slowdown != 1.0 {
				t.Errorf("%s: tenant %s slowdown %.4f, want 1.0", solver.Spec(), a.Tenant, a.Slowdown)
			}
		}
	}
}

// TestMixesNeverWorseThanBaseline runs every bundled mix through both fleet
// solvers: each result must be capacity-feasible, its objective never worse
// than the naive independent baseline's, and strictly better on the
// contended shared-squeeze mix.
func TestMixesNeverWorseThanBaseline(t *testing.T) {
	adv := testAdvisor(t)
	ctx := context.Background()
	for _, name := range MixNames() {
		mix, _ := GetMix(name)
		b := mix.BudgetsOn(adv.Cfg)
		p, err := NewProblem(ctx, adv, mix.Tenants, Options{Budgets: &b})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, solver := range []Solver{Greedy(), Beam(DefaultBeamWidth)} {
			res, err := p.Solve(ctx, solver, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, solver.Spec(), err)
			}
			for sp := range p.Budgets {
				if p.Budgets[sp] >= 0 && res.Usage[sp] > p.Budgets[sp] {
					t.Errorf("%s/%s: usage[%s] = %d exceeds budget %d", name, solver.Spec(),
						gpu.Spaces[sp].LongString(), res.Usage[sp], p.Budgets[sp])
				}
			}
			if res.Independent.Feasible && res.ObjectiveValue > res.Independent.ObjectiveValue {
				t.Errorf("%s/%s: objective %.4f worse than naive baseline %.4f",
					name, solver.Spec(), res.ObjectiveValue, res.Independent.ObjectiveValue)
			}
			if name == "shared-squeeze" && res.ObjectiveValue >= res.Independent.ObjectiveValue {
				t.Errorf("shared-squeeze/%s: objective %.4f does not beat naive baseline %.4f",
					solver.Spec(), res.ObjectiveValue, res.Independent.ObjectiveValue)
			}
		}
	}
}

// TestFleetDeterminismAcrossWorkers: the acceptance determinism suite — the
// whole pipeline (menus built at parallelism 1, 2, 8; then each solver) must
// produce byte-identical results for every worker count.
func TestFleetDeterminismAcrossWorkers(t *testing.T) {
	adv := testAdvisor(t)
	// A cheap contended mix (no spmv): shared budget 2 KiB forces choices.
	tenants := []Tenant{{Kernel: "sort"}, {Kernel: "fft"}, {Kernel: "vecadd"}, {Kernel: "reduction"}}
	budgets := DefaultBudgets(adv.Cfg)
	budgets[gpu.Shared] = 2 << 10

	type run struct {
		workers int
		bytes   map[string][]byte
	}
	var runs []run
	for _, workers := range []int{1, 2, 8} {
		p, err := NewProblem(context.Background(), adv, tenants, Options{
			Budgets: &budgets, Parallelism: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		r := run{workers: workers, bytes: map[string][]byte{}}
		for _, solver := range []Solver{Greedy(), Beam(2), Beam(DefaultBeamWidth)} {
			res, err := p.Solve(context.Background(), solver, nil)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, solver.Spec(), err)
			}
			// Serialize everything determinism-relevant.
			type row struct {
				Tenant string
				Spec   string
				NS     float64
			}
			var rows []row
			for _, a := range res.Assignments {
				rows = append(rows, row{a.Tenant, a.Spec, a.PredictedNS})
			}
			blob, err := json.Marshal(struct {
				Objective float64
				Rows      []row
				Usage     Demand
			}{res.ObjectiveValue, rows, res.Usage})
			if err != nil {
				t.Fatal(err)
			}
			r.bytes[solver.Spec()] = blob
		}
		runs = append(runs, r)
	}
	for _, r := range runs[1:] {
		for spec, blob := range r.bytes {
			if string(blob) != string(runs[0].bytes[spec]) {
				t.Errorf("%s: workers=%d result differs from workers=1:\n%s\nvs\n%s",
					spec, r.workers, blob, runs[0].bytes[spec])
			}
		}
	}
}

// TestFleetInfeasible: a budget nobody fits under must surface
// ErrCapacityExceeded (and, via the chain, ErrIllegalPlacement) from both
// solvers — never a panic or a silent bad assignment.
func TestFleetInfeasible(t *testing.T) {
	adv := testAdvisor(t)
	budgets := DefaultBudgets(adv.Cfg)
	budgets[gpu.Global] = 4 // every space gets 4 bytes: no array fits anywhere
	budgets[gpu.Shared] = 4
	budgets[gpu.Texture1D] = 4
	budgets[gpu.Texture2D] = 4
	budgets[gpu.Constant] = 4
	p, err := NewProblem(context.Background(), adv, []Tenant{{Kernel: "vecadd"}}, Options{Budgets: &budgets})
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []Solver{Greedy(), Beam(DefaultBeamWidth)} {
		_, err := p.Solve(context.Background(), solver, nil)
		if !errors.Is(err, hmserr.ErrCapacityExceeded) {
			t.Errorf("%s: err = %v, want ErrCapacityExceeded", solver.Spec(), err)
		}
		if !errors.Is(err, hmserr.ErrIllegalPlacement) {
			t.Errorf("%s: capacity error must chain onto ErrIllegalPlacement", solver.Spec())
		}
	}
}

// TestFleetUnknownKernel: unknown tenant kernels surface the hmserr sentinel,
// attributed to their tenant.
func TestFleetUnknownKernel(t *testing.T) {
	adv := testAdvisor(t)
	_, err := NewProblem(context.Background(), adv, []Tenant{{Kernel: "nosuch"}}, Options{})
	if !errors.Is(err, hmserr.ErrUnknownKernel) {
		t.Errorf("err = %v, want ErrUnknownKernel", err)
	}
	if want := `fleet tenant "t0": unknown kernel: nosuch`; err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}

// TestFleetMenuBudget: a MaxCandidates budget too small to build the menus
// returns a *hmserr.BudgetError, not a partial problem.
func TestFleetMenuBudget(t *testing.T) {
	adv := testAdvisor(t)
	_, err := NewProblem(context.Background(), adv,
		[]Tenant{{Kernel: "fft"}, {Kernel: "sort"}}, Options{MaxCandidates: 3})
	var be *hmserr.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *hmserr.BudgetError", err)
	}
	if !errors.Is(err, hmserr.ErrBudgetExceeded) {
		t.Error("budget error must wrap ErrBudgetExceeded")
	}
}

// TestFleetCancellation: a canceled context aborts menu building promptly.
func TestFleetCancellation(t *testing.T) {
	adv := testAdvisor(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewProblem(ctx, adv, []Tenant{{Kernel: "vecadd"}}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestWeightedObjective: under WeightedSum, weights shift the optimum —
// a heavily-weighted shared-hungry tenant must keep its shared placement.
func TestWeightedObjective(t *testing.T) {
	adv := testAdvisor(t)
	budgets := DefaultBudgets(adv.Cfg)
	budgets[gpu.Shared] = 2 << 10 // sort (1088 B) and fft (2048 B) cannot both fit
	heavy := []Tenant{{Name: "light", Kernel: "fft"}, {Name: "heavy", Kernel: "sort", Weight: 100}}
	p, err := NewProblem(context.Background(), adv, heavy, Options{
		Budgets: &budgets, Objective: WeightedSum,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Solve(context.Background(), Beam(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	var heavySlow, lightSlow float64
	for _, a := range res.Assignments {
		switch a.Tenant {
		case "heavy":
			heavySlow = a.Slowdown
		case "light":
			lightSlow = a.Slowdown
		}
	}
	if heavySlow > lightSlow {
		t.Errorf("weight-100 tenant slowed %.4fx more than weight-1 tenant (%.4fx)",
			heavySlow, lightSlow)
	}
}

// TestParseSolver pins the wire grammar.
func TestParseSolver(t *testing.T) {
	for spec, want := range map[string]string{
		"":        "greedy",
		"greedy":  "greedy",
		" GREEDY": "greedy",
		"beam":    "beam-4",
		"beam-2":  "beam-2",
		"beam-64": "beam-64",
	} {
		s, err := ParseSolver(spec)
		if err != nil {
			t.Errorf("ParseSolver(%q): %v", spec, err)
			continue
		}
		if s.Spec() != want {
			t.Errorf("ParseSolver(%q).Spec() = %q, want %q", spec, s.Spec(), want)
		}
	}
	for _, spec := range []string{"annealing", "beam-0", "beam-x", "beam-999999999"} {
		if _, err := ParseSolver(spec); !errors.Is(err, hmserr.ErrUnknownStrategy) {
			t.Errorf("ParseSolver(%q) = %v, want ErrUnknownStrategy", spec, err)
		}
	}
}

// TestParseObjective pins the objective grammar.
func TestParseObjective(t *testing.T) {
	for spec, want := range map[string]Objective{
		"": MinMax, "minmax": MinMax, "min-max": MinMax,
		"weighted": WeightedSum, "sum": WeightedSum,
	} {
		o, err := ParseObjective(spec)
		if err != nil || o != want {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", spec, o, err, want)
		}
	}
	if _, err := ParseObjective("fairness"); !errors.Is(err, hmserr.ErrUnknownStrategy) {
		t.Errorf("unknown objective must wrap ErrUnknownStrategy, got %v", err)
	}
}

// TestMixRegistry pins the bundled mixes and GetMix's copy semantics.
func TestMixRegistry(t *testing.T) {
	names := MixNames()
	if len(names) < 3 {
		t.Fatalf("want >= 3 bundled mixes, got %v", names)
	}
	for _, n := range names {
		m, ok := GetMix(n)
		if !ok || len(m.Tenants) == 0 {
			t.Errorf("mix %q unavailable or empty", n)
		}
	}
	m1, _ := GetMix("shared-squeeze")
	m1.Tenants[0].Kernel = "mutated"
	m1.Budgets[gpu.Shared] = 1
	m2, _ := GetMix("shared-squeeze")
	if m2.Tenants[0].Kernel == "mutated" || m2.Budgets[gpu.Shared] == 1 {
		t.Error("GetMix must return independent copies")
	}
	if _, ok := GetMix("nosuch"); ok {
		t.Error("unknown mix must not resolve")
	}
}

// TestDemandOf pins the demand accounting: shared entries are per-block
// footprints, others raw bytes, each charged to its own space.
func TestDemandOf(t *testing.T) {
	p := testSqueezeProblem(t)
	for _, ts := range p.Tenants {
		for _, c := range ts.Menu {
			var want Demand
			for i, sp := range c.Placement.Spaces {
				if sp == gpu.Shared {
					continue // checked via the placement package directly below
				}
				want[sp] += int64(ts.Trace.Arrays[i].Bytes())
			}
			for i := range gpu.Spaces {
				if gpu.Spaces[i] == gpu.Shared {
					continue
				}
				if c.Demand[i] != want[i] {
					t.Fatalf("tenant %s: demand[%s] = %d, want %d",
						ts.Name, gpu.Spaces[i].LongString(), c.Demand[i], want[i])
				}
			}
		}
	}
}
