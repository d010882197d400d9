// Package fleet solves capacity-constrained multi-kernel placement: N
// tenant kernels, each with its own trained predictor (via the advisor),
// compete for the finite per-space byte capacities of one GPU
// (gpu.Config.CapacityBytes). A single-kernel ranking assumes an empty
// machine; the fleet problem asks which placement each tenant should get so
// that everyone fits and nobody is starved — formally, minimize the maximum
// (or weighted sum of) predicted slowdown versus each tenant's unconstrained
// best placement, subject to per-space byte budgets.
//
// The subsystem reuses the single-kernel Strategy engine end-to-end: each
// tenant's candidate menu is the Pareto frontier over (predicted time,
// per-space demand) of an exhaustive advisor.Search, and the fleet solvers
// (lookahead greedy, bounded beam — solver.go) inherit its contracts:
// deterministic results for any worker count, shared MaxCandidates budget →
// *hmserr.BudgetError, ctx-cancel precedence, obs progress and metrics.
// docs/FLEET.md describes the model, objectives, and wire format.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"gpuhms/internal/advisor"
	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// ErrUnknownMix: a request names a bundled tenant mix that does not exist.
// The advisory service maps it to 404 (like hmserr.ErrUnknownKernel, which
// an unknown tenant kernel wraps); hmsplace exits with its distinct
// unknown-name code on both.
var ErrUnknownMix = errors.New("fleet: unknown mix")

// Unbounded marks a per-space budget with no limit.
const Unbounded int64 = -1

// DefaultMenuSize bounds a tenant's candidate menu (the Pareto frontier of
// its exhaustive ranking) when Options.MenuSize is zero. Frontiers of the
// bundled kernels are far smaller; the cap exists so a hostile request
// cannot make the assignment search quadratic in an enormous menu.
const DefaultMenuSize = 64

// MaxMenuSize caps Options.MenuSize from wire input.
const MaxMenuSize = 512

// Tenant is one kernel in a fleet problem, as specified by the caller.
type Tenant struct {
	// Name identifies the tenant in results ("t0", "t1", … when empty).
	Name string
	// Kernel is the bundled workload name (kernels.Names).
	Kernel string
	// Scale is the workload scale factor (default 1).
	Scale int
	// Sample overrides the kernel's sample placement ("name:space,…").
	Sample string
	// Weight scales the tenant's slowdown in the objective (default 1).
	Weight float64
}

// Demand is a per-space byte demand vector, indexed by gpu.MemSpace. Shared
// entries are per-block footprints (placement.SharedFootprint); the others
// are raw array bytes.
type Demand [gpu.NumSpaces]int64

// Plus returns the element-wise sum.
func (d Demand) Plus(o Demand) Demand {
	for i := range d {
		d[i] += o[i]
	}
	return d
}

// Minus returns the element-wise difference.
func (d Demand) Minus(o Demand) Demand {
	for i := range d {
		d[i] -= o[i]
	}
	return d
}

// DemandOf computes the per-space demand of one placement: shared-placed
// arrays cost their per-block footprint, every other space costs the array's
// raw bytes against that space's budget.
func DemandOf(t *trace.Trace, p *placement.Placement) Demand {
	var d Demand
	for i, sp := range p.Spaces {
		if sp == gpu.Shared {
			d[gpu.Shared] += int64(placement.SharedFootprint(t, trace.ArrayID(i)))
		} else {
			d[sp] += int64(t.Arrays[i].Bytes())
		}
	}
	return d
}

// Budgets holds the per-space byte capacities of a fleet problem, indexed by
// gpu.MemSpace; Unbounded (-1) disables the check for a space.
type Budgets [gpu.NumSpaces]int64

// DefaultBudgets derives budgets from the architecture's geometry
// (gpu.Config.CapacityBytes): shared per block, constant total, device DRAM
// for the global and texture spaces (each individually, Unbounded when the
// config leaves DRAM unbounded).
func DefaultBudgets(cfg *gpu.Config) Budgets {
	var b Budgets
	for i, sp := range gpu.Spaces {
		if c := cfg.CapacityBytes(sp); c >= 0 {
			b[i] = int64(c)
		} else {
			b[i] = Unbounded
		}
	}
	return b
}

// Fits reports whether used+extra stays within every bounded space.
func (b Budgets) Fits(used, extra Demand) bool {
	for i := range b {
		if b[i] >= 0 && used[i]+extra[i] > b[i] {
			return false
		}
	}
	return true
}

// String renders the bounded budgets deterministically ("shared=12288,…").
func (b Budgets) String() string {
	var sb strings.Builder
	for i, sp := range gpu.Spaces {
		if b[i] < 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%d", sp.LongString(), b[i])
	}
	return sb.String()
}

// Objective selects how per-tenant slowdowns aggregate.
type Objective uint8

const (
	// MinMax minimizes the worst weighted slowdown across tenants (the
	// fairness objective; the default).
	MinMax Objective = iota
	// WeightedSum minimizes the sum of weighted slowdowns (the throughput
	// objective).
	WeightedSum
)

// String returns the canonical wire spelling.
func (o Objective) String() string {
	if o == WeightedSum {
		return "weighted"
	}
	return "minmax"
}

// ParseObjective converts a wire spec into an Objective ("" = MinMax).
// Unknown specs wrap hmserr.ErrUnknownStrategy — caller input, never 5xx.
func ParseObjective(spec string) (Objective, error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "", "minmax", "min-max":
		return MinMax, nil
	case "weighted", "weighted-sum", "sum":
		return WeightedSum, nil
	}
	return MinMax, hmserr.Wrap(hmserr.ErrUnknownStrategy,
		"unknown fleet objective %q (want minmax or weighted)", spec)
}

// objAcc accumulates weighted slowdowns under one objective.
type objAcc struct {
	o Objective
	v float64
}

func (a *objAcc) add(s float64) {
	if a.o == MinMax {
		if s > a.v {
			a.v = s
		}
	} else {
		a.v += s
	}
}

// Candidate is one menu entry of a tenant: a placement, its predicted time,
// its enumeration index (the engine's tie-break order), and its demand.
type Candidate struct {
	Placement   *placement.Placement
	PredictedNS float64
	Index       int64
	Demand      Demand
}

// TenantState is a tenant with its built menu: the Pareto frontier of its
// exhaustive ranking over (time, bounded-space demand), fastest first. Menu
// entry 0 is the unconstrained best; the final entry is the frontier's
// minimum-demand fallback, kept even under truncation so feasibility under
// tight budgets survives.
type TenantState struct {
	Tenant
	Trace *trace.Trace
	Menu  []Candidate
	// BestNS is the unconstrained best prediction (Menu[0]); slowdowns are
	// measured against it.
	BestNS float64
	// FloorNS is the admissible core.PlacementBound floor over the whole
	// placement space — the beam solver's per-tenant completion bound.
	FloorNS float64
	// MenuEvaluated / MenuTotal record the menu-building search's coverage.
	MenuEvaluated int
	MenuTotal     int
}

// Options configures a fleet solve.
type Options struct {
	// Budgets overrides the architecture-derived DefaultBudgets.
	Budgets *Budgets
	// Objective selects MinMax (default) or WeightedSum.
	Objective Objective
	// MenuSize caps each tenant's Pareto menu (0 = DefaultMenuSize, capped
	// at MaxMenuSize).
	MenuSize int
	// MaxCandidates bounds the total model evaluations spent building menus
	// across all tenants (0 = unlimited). Exhaustion returns a
	// *hmserr.BudgetError — a fleet problem with half-built menus has no
	// meaningful partial answer, so unlike single-kernel ranking this is an
	// error, not a partial result.
	MaxCandidates int
	// Parallelism is the per-tenant ranking worker count (advisor.Search).
	// Results are identical for every value.
	Parallelism int
	// Solver picks the assignment search (nil = Greedy()).
	Solver Solver
	// Recorder receives menu/solve telemetry; nil falls back to the
	// advisor's recorder.
	Recorder obs.Recorder
}

// Problem is a built fleet instance: tenants with menus, budgets, and an
// objective. Build with NewProblem (the expensive step — one exhaustive
// ranking per tenant), solve with Solve, possibly several times with
// different solvers.
type Problem struct {
	Cfg       *gpu.Config
	Tenants   []*TenantState
	Budgets   Budgets
	Objective Objective
	// MenuEvaluated / MenuTotal aggregate menu-building coverage.
	MenuEvaluated int
	MenuTotal     int
}

// Assignment is one tenant's placement in a Result.
type Assignment struct {
	Tenant      string
	Kernel      string
	Scale       int
	Weight      float64
	Placement   *placement.Placement
	Spec        string // Placement formatted with array names
	PredictedNS float64
	BestNS      float64
	Slowdown    float64 // PredictedNS / BestNS (unweighted)
}

// Baseline is the naive independent-per-kernel reference: each tenant takes
// its own fastest placement that still fits, first-fit in input order, with
// no lookahead — what N independent single-kernel rankings would do.
type Baseline struct {
	// UnconstrainedFits reports whether every tenant's unconstrained best
	// fits simultaneously (capacity not binding; the fleet answer matches
	// independent ranking).
	UnconstrainedFits bool
	// Feasible reports whether first-fit found any feasible assignment.
	Feasible bool
	// ObjectiveValue is the first-fit assignment's objective (0 when
	// infeasible).
	ObjectiveValue float64
}

// Result is a solved fleet problem.
type Result struct {
	Solver         string
	Objective      Objective
	ObjectiveValue float64
	Assignments    []Assignment // input order
	Usage          Demand
	Budgets        Budgets
	Independent    Baseline
	MenuEvaluated  int
	MenuTotal      int
	// AssignEvaluated counts objective evaluations the solver spent.
	AssignEvaluated int
	// Pruned counts beam children discarded by width or bound.
	Pruned int
}

// NewProblem builds a fleet instance: it resolves each tenant's kernel,
// profiles its sample placement, ranks its legal placement space
// exhaustively through the Strategy engine (inheriting cancellation and the
// shared MaxCandidates budget), and keeps the Pareto frontier over
// (predicted time, bounded-space demand) as the tenant's menu.
func NewProblem(ctx context.Context, adv *advisor.Advisor, tenants []Tenant, opt Options) (p *Problem, err error) {
	defer hmserr.Guard(&err)
	if adv == nil || adv.Cfg == nil {
		return nil, fmt.Errorf("fleet: nil advisor")
	}
	if len(tenants) == 0 {
		return nil, hmserr.Wrap(hmserr.ErrInvalidTrace, "fleet problem with no tenants")
	}
	rec := obs.OrNop(opt.Recorder)
	if opt.Recorder == nil {
		rec = obs.OrNop(adv.Recorder)
	}
	budgets := DefaultBudgets(adv.Cfg)
	if opt.Budgets != nil {
		budgets = *opt.Budgets
	}
	menuSize := opt.MenuSize
	if menuSize <= 0 {
		menuSize = DefaultMenuSize
	}
	if menuSize > MaxMenuSize {
		menuSize = MaxMenuSize
	}

	p = &Problem{Cfg: adv.Cfg, Budgets: budgets, Objective: opt.Objective}
	names := make(map[string]bool, len(tenants))
	for i, t := range tenants {
		if t.Name == "" {
			t.Name = fmt.Sprintf("t%d", i)
		}
		if names[t.Name] {
			return nil, hmserr.Wrap(hmserr.ErrInvalidTrace, "duplicate tenant name %q", t.Name)
		}
		names[t.Name] = true
		if t.Scale == 0 {
			t.Scale = 1
		}
		if t.Weight <= 0 {
			t.Weight = 1
		}
		// The per-tenant menu search draws from one shared eval budget, like
		// the engine's own token pool across workers.
		remaining := 0
		if opt.MaxCandidates > 0 {
			remaining = opt.MaxCandidates - p.MenuEvaluated
			if remaining <= 0 {
				return nil, &hmserr.BudgetError{Evaluated: p.MenuEvaluated, What: "fleet menu evaluations"}
			}
		}
		var menuStart float64
		if rec.Enabled() {
			menuStart = rec.Now()
		}
		tr, sample, pr, err := adv.KernelPredictor(ctx, t.Kernel, t.Scale, t.Sample)
		if err != nil {
			return nil, fmt.Errorf("fleet tenant %q: %w", t.Name, err)
		}
		res, err := advisor.Search(ctx, adv.Cfg, tr, pr, advisor.RankOptions{
			MaxCandidates: remaining,
			Parallelism:   opt.Parallelism,
		}, rec)
		if err != nil {
			if errors.Is(err, hmserr.ErrBudgetExceeded) {
				evaluated := p.MenuEvaluated
				if res != nil {
					evaluated += res.Evaluated
				}
				return nil, &hmserr.BudgetError{Evaluated: evaluated, What: "fleet menu evaluations"}
			}
			return nil, err
		}
		ts := &TenantState{
			Tenant:        t,
			Trace:         tr,
			Menu:          paretoMenu(tr, res.Ranked, budgets, menuSize),
			MenuEvaluated: res.Evaluated,
			MenuTotal:     res.Total,
		}
		if len(ts.Menu) == 0 || ts.Menu[0].PredictedNS <= 0 {
			return nil, hmserr.Wrap(hmserr.ErrIllegalPlacement,
				"tenant %q (%s) has no legal placements", t.Name, t.Kernel)
		}
		ts.BestNS = ts.Menu[0].PredictedNS
		ts.FloorNS = core.NewPlacementBound(pr).Bound(sample, 0)
		p.Tenants = append(p.Tenants, ts)
		p.MenuEvaluated += res.Evaluated
		p.MenuTotal += res.Total
		if rec.Enabled() {
			rec.Add("fleet_menu_evals_total", int64(res.Evaluated))
			rec.Span("fleet", fmt.Sprintf("menu %s (%s): %d candidates", t.Name, t.Kernel, len(ts.Menu)),
				menuStart, rec.Now()-menuStart)
		}
	}
	return p, nil
}

// paretoMenu keeps, from a fastest-first ranking, the placements on the
// (time, bounded-space demand) Pareto frontier: an entry survives only when
// no faster (or equal-and-earlier) entry demands no more of every bounded
// space. The frontier is scanned in ranking order, so it stays sorted
// fastest-first with strictly loosening demand; the final entry is the
// cheapest-to-fit fallback, kept even when size truncates the middle.
func paretoMenu(tr *trace.Trace, ranked []advisor.Ranked, budgets Budgets, size int) []Candidate {
	var menu []Candidate
	for _, r := range ranked {
		d := DemandOf(tr, r.Placement)
		dominated := false
		for _, k := range menu {
			if demandLE(k.Demand, d, budgets) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		menu = append(menu, Candidate{
			Placement:   r.Placement.Clone(),
			PredictedNS: r.PredictedNS,
			Index:       r.Index,
			Demand:      d,
		})
	}
	if len(menu) > size {
		tail := menu[len(menu)-1]
		menu = append(menu[:size-1:size-1], tail)
	}
	return menu
}

// demandLE reports a ≤ b element-wise over the bounded spaces.
func demandLE(a, b Demand, budgets Budgets) bool {
	for i := range a {
		if budgets[i] >= 0 && a[i] > b[i] {
			return false
		}
	}
	return true
}

// bestFitting returns the index of the tenant's fastest menu entry that fits
// the remaining capacity, or -1 when none does. Menus are fastest-first, so
// the first fit is the best fit.
func bestFitting(ts *TenantState, used Demand, b Budgets) int {
	for mi := range ts.Menu {
		if b.Fits(used, ts.Menu[mi].Demand) {
			return mi
		}
	}
	return -1
}

// baseline computes the naive independent reference: first-fit own-best in
// input order, no lookahead.
func (p *Problem) baseline() Baseline {
	var all Demand
	for _, ts := range p.Tenants {
		all = all.Plus(ts.Menu[0].Demand)
	}
	bl := Baseline{UnconstrainedFits: p.Budgets.Fits(Demand{}, all), Feasible: true}
	chosen, ok := p.baselineChosen()
	if !ok {
		bl.Feasible = false
		return bl
	}
	acc := objAcc{o: p.Objective}
	for i, ts := range p.Tenants {
		acc.add(ts.Weight * ts.Menu[chosen[i]].PredictedNS / ts.BestNS)
	}
	bl.ObjectiveValue = acc.v
	return bl
}

// objectiveOf is the exact objective of a complete assignment.
func (p *Problem) objectiveOf(chosen []int) float64 {
	acc := objAcc{o: p.Objective}
	for i, ts := range p.Tenants {
		acc.add(ts.Weight * ts.Menu[chosen[i]].PredictedNS / ts.BestNS)
	}
	return acc.v
}

// baselineChosen returns the first-fit assignment in menu-index space, or
// ok=false when some tenant has no fitting entry under it.
func (p *Problem) baselineChosen() ([]int, bool) {
	chosen := make([]int, len(p.Tenants))
	var used Demand
	for i, ts := range p.Tenants {
		mi := bestFitting(ts, used, p.Budgets)
		if mi < 0 {
			return nil, false
		}
		chosen[i] = mi
		used = used.Plus(ts.Menu[mi].Demand)
	}
	return chosen, true
}

// Solve runs one assignment search over the built problem. Solving is cheap
// relative to NewProblem (no model evaluations — menus carry the
// predictions), deterministic, and reusable: the same Problem can be solved
// under several solvers.
func (p *Problem) Solve(ctx context.Context, solver Solver, rec obs.Recorder) (res *Result, err error) {
	defer hmserr.Guard(&err)
	if solver == nil {
		solver = Greedy()
	}
	rec = obs.OrNop(rec)
	e := &engine{ctx: ctx, p: p, chosen: make([]int, len(p.Tenants))}
	for i := range e.chosen {
		e.chosen[i] = -1
	}
	e.order = p.solveOrder()
	if err := solver.solve(e); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The heuristics can occasionally land above the naive first-fit baseline
	// (a different local optimum). When they do, restart from the baseline
	// assignment and polish it — the fleet answer is then never worse than
	// independent ranking whenever independent ranking is feasible.
	if bc, ok := p.baselineChosen(); ok {
		if blObj := p.objectiveOf(bc); blObj < e.objectiveWith(-1, -1) {
			copy(e.chosen, bc)
			e.used = Demand{}
			for i, ts := range p.Tenants {
				e.used = e.used.Plus(ts.Menu[bc[i]].Demand)
			}
			e.polish()
		}
	}

	res = &Result{
		Solver:          solver.Spec(),
		Objective:       p.Objective,
		Budgets:         p.Budgets,
		Independent:     p.baseline(),
		MenuEvaluated:   p.MenuEvaluated,
		MenuTotal:       p.MenuTotal,
		AssignEvaluated: e.evals,
		Pruned:          e.pruned,
	}
	acc := objAcc{o: p.Objective}
	for i, ts := range p.Tenants {
		c := ts.Menu[e.chosen[i]]
		acc.add(ts.Weight * c.PredictedNS / ts.BestNS)
		res.Usage = res.Usage.Plus(c.Demand)
		res.Assignments = append(res.Assignments, Assignment{
			Tenant:      ts.Name,
			Kernel:      ts.Kernel,
			Scale:       ts.Scale,
			Weight:      ts.Weight,
			Placement:   c.Placement,
			Spec:        c.Placement.Format(ts.Trace),
			PredictedNS: c.PredictedNS,
			BestNS:      ts.BestNS,
			Slowdown:    c.PredictedNS / ts.BestNS,
		})
	}
	res.ObjectiveValue = acc.v
	if rec.Enabled() {
		rec.Add("fleet_assign_evals_total", int64(e.evals))
		rec.Gauge("fleet_objective", res.ObjectiveValue)
	}
	rec.ReportProgress(obs.Progress{
		Evaluated: e.evals,
		Strategy:  "fleet:" + solver.Spec(),
		Pruned:    e.pruned,
		Done:      true,
	})
	return res, nil
}

// solveOrder ranks tenants hardest-first: descending weighted worst-case
// slowdown (what the tenant suffers when starved down to its minimum-demand
// fallback), then descending bounded demand of its best placement, then
// input order. Placing hard tenants first is the PRISM-style heuristic both
// solvers share.
func (p *Problem) solveOrder() []int {
	type h struct {
		i      int
		spread float64
		demand int64
	}
	hs := make([]h, len(p.Tenants))
	for i, ts := range p.Tenants {
		worst := ts.Menu[len(ts.Menu)-1]
		var dem int64
		for si := range p.Budgets {
			if p.Budgets[si] >= 0 {
				dem += ts.Menu[0].Demand[si]
			}
		}
		hs[i] = h{i: i, spread: ts.Weight * worst.PredictedNS / ts.BestNS, demand: dem}
	}
	order := make([]int, len(hs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := order[x], order[y]
		if hs[a].spread != hs[b].spread {
			return hs[a].spread > hs[b].spread
		}
		if hs[a].demand != hs[b].demand {
			return hs[a].demand > hs[b].demand
		}
		return a < b
	})
	return order
}

// Solve builds the problem and runs one solver — the convenience entry point
// the service and CLI use.
func Solve(ctx context.Context, adv *advisor.Advisor, tenants []Tenant, opt Options) (*Result, error) {
	p, err := NewProblem(ctx, adv, tenants, opt)
	if err != nil {
		return nil, err
	}
	rec := opt.Recorder
	if rec == nil && adv != nil {
		rec = adv.Recorder
	}
	return p.Solve(ctx, opt.Solver, rec)
}
