package service

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"gpuhms/internal/advisor"
	"gpuhms/internal/fleet"
	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/obs"
)

// MaxTenants caps the tenant count of one fleet request: enough for any
// realistic co-location scenario, small enough that a hostile request cannot
// demand dozens of exhaustive rankings in one call.
const MaxTenants = 16

// FleetTenant is one tenant kernel in a FleetRankRequest.
type FleetTenant struct {
	// Name identifies the tenant in the response ("t0", "t1", … when empty).
	Name string `json:"name,omitempty"`
	// Kernel is the bundled workload name (GET /v1/kernels).
	Kernel string `json:"kernel"`
	// Scale is the workload scale factor (default 1, capped at MaxScale).
	Scale int `json:"scale,omitempty"`
	// Sample overrides the kernel's sample placement.
	Sample string `json:"sample,omitempty"`
	// Weight scales the tenant's slowdown in the objective (default 1).
	Weight float64 `json:"weight,omitempty"`
}

// FleetRankRequest is the body of POST /v1/fleet/rank: place N tenant
// kernels onto one GPU under per-space byte budgets, minimizing the worst
// (or weighted sum of) predicted slowdown versus each tenant's unconstrained
// best. Exactly one of Tenants or Mix must be given; a mix expands to its
// bundled tenants and budget overrides at decode.
type FleetRankRequest struct {
	// Arch selects the modeled architecture: "k80" (default) or "fermi".
	Arch string `json:"arch,omitempty"`
	// Tenants lists the kernels to co-locate (at most MaxTenants).
	Tenants []FleetTenant `json:"tenants,omitempty"`
	// Mix names a bundled tenant mix instead of explicit tenants
	// (fleet.MixNames: "balanced", "shared-squeeze", "shared-storm").
	Mix string `json:"mix,omitempty"`
	// Solver selects the assignment search: "greedy" or "beam-W". Empty uses
	// the server's configured default solver.
	Solver string `json:"solver,omitempty"`
	// Objective selects "minmax" (default) or "weighted".
	Objective string `json:"objective,omitempty"`
	// Budgets overrides per-space byte capacities, keyed by space name
	// ("shared", "global", "constant", "tex1d", "tex2d"); -1 means
	// unbounded. Unlisted spaces keep the architecture-derived default (or
	// the mix's override).
	Budgets map[string]int64 `json:"budgets,omitempty"`
	// MenuSize caps each tenant's candidate menu (0 = fleet.DefaultMenuSize).
	MenuSize int `json:"menu_size,omitempty"`
	// MaxCandidates bounds total model evaluations across all tenant menus;
	// exhaustion is a 400, not a partial result.
	MaxCandidates int `json:"max_candidates,omitempty"`
	// Parallelism is the per-tenant ranking worker count (results are
	// identical for every value).
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutMS bounds the solve wall-clock (0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// FleetAssignment is one tenant's placement in a FleetRankResponse.
type FleetAssignment struct {
	Tenant string `json:"tenant"`
	Kernel string `json:"kernel"`
	Scale  int    `json:"scale"`
	// Weight is echoed when it differs from 1.
	Weight float64 `json:"weight,omitempty"`
	// Placement is the assigned placement spec ("name:space,…").
	Placement   string  `json:"placement"`
	PredictedNS float64 `json:"predicted_ns"`
	// BestNS is the tenant's unconstrained best prediction.
	BestNS float64 `json:"best_ns"`
	// Slowdown is PredictedNS / BestNS (1.0 = got its best).
	Slowdown float64 `json:"slowdown"`
}

// FleetUsage reports one bounded space's consumption.
type FleetUsage struct {
	Space string `json:"space"`
	Used  int64  `json:"used"`
	Limit int64  `json:"limit"`
}

// FleetBaseline is the naive independent-ranking reference in a response.
type FleetBaseline struct {
	// UnconstrainedFits: every tenant's unconstrained best fits at once.
	UnconstrainedFits bool `json:"unconstrained_fits"`
	// Feasible: first-fit independent placement found any assignment.
	Feasible bool `json:"feasible"`
	// ObjectiveValue is the naive assignment's objective (0 if infeasible).
	ObjectiveValue float64 `json:"objective_value,omitempty"`
}

// FleetCoverage reports the solve's search effort.
type FleetCoverage struct {
	// MenuEvaluated / MenuTotal are model evaluations spent building menus
	// over the aggregate candidate space.
	MenuEvaluated int `json:"menu_evaluated"`
	MenuTotal     int `json:"menu_total"`
	// AssignEvaluated counts assignment-search objective evaluations.
	AssignEvaluated int `json:"assign_evaluated"`
	// Pruned counts beam children discarded by bound or width.
	Pruned int `json:"pruned,omitempty"`
}

// FleetRankResponse is the reply of POST /v1/fleet/rank and of
// `hmsplace -fleet -json`. Like RankResponse it is a deterministic function
// of the request, so cached replies are byte-identical.
type FleetRankResponse struct {
	Arch string `json:"arch"`
	// Solver is the effective assignment solver after server defaults.
	Solver string `json:"solver"`
	// Objective is the canonical objective spelling ("minmax", "weighted").
	Objective string `json:"objective"`
	// ObjectiveValue is the solved objective (min-max: the worst weighted
	// slowdown; weighted: the sum).
	ObjectiveValue float64 `json:"objective_value"`
	// Tenants lists the assignments in request order.
	Tenants []FleetAssignment `json:"tenants"`
	// Usage lists consumption of every bounded space.
	Usage []FleetUsage `json:"usage,omitempty"`
	// Independent is the naive independent-placement baseline the fleet
	// solve is measured against.
	Independent *FleetBaseline `json:"independent,omitempty"`
	// Coverage reports search effort.
	Coverage *FleetCoverage `json:"coverage,omitempty"`
}

// DecodeFleetRequest parses and validates a /v1/fleet/rank body under the
// same contract as DecodeRankRequest (FuzzDecodeFleetRequest): any input
// yields either a bounded, normalized request or an error wrapping
// ErrBadRequest / hmserr.ErrUnknownStrategy / fleet.ErrUnknownMix — never a
// panic, never a 5xx. A mix expands to its tenants and the arch is
// canonicalized (canonicalArch) here, so the cache key and the solver see
// one canonical form. Kernel existence is checked later against the
// registry.
func DecodeFleetRequest(data []byte) (*FleetRankRequest, error) {
	var req FleetRankRequest
	if err := decodeJSON(data, &req); err != nil {
		return nil, err
	}
	if len(req.Arch) > 64 {
		return nil, badf("arch name longer than 64 bytes")
	}
	// Budgets: canonicalize keys to the long space names first, so
	// equivalent spellings ("S" vs "shared") share one cache key and the mix
	// merge below sees canonical names.
	if len(req.Budgets) > gpu.NumSpaces {
		return nil, badf("budgets lists %d spaces (max %d)", len(req.Budgets), gpu.NumSpaces)
	}
	if len(req.Budgets) > 0 {
		canon := make(map[string]int64, len(req.Budgets))
		for name, v := range req.Budgets {
			if len(name) > 64 {
				return nil, badf("budget space name longer than 64 bytes")
			}
			sp, err := gpu.ParseSpace(name)
			if err != nil {
				return nil, badf("budget space %q: %v", name, err)
			}
			if v < -1 {
				return nil, badf("budget %s=%d below -1 (unbounded)", sp.LongString(), v)
			}
			if _, dup := canon[sp.LongString()]; dup {
				return nil, badf("budget space %q given twice", sp.LongString())
			}
			canon[sp.LongString()] = v
		}
		req.Budgets = canon
	}
	if req.Mix != "" {
		if len(req.Tenants) > 0 {
			return nil, badf("tenants and mix are mutually exclusive")
		}
		if len(req.Mix) > 256 {
			return nil, badf("mix name longer than 256 bytes")
		}
		m, ok := fleet.GetMix(req.Mix)
		if !ok {
			return nil, fmt.Errorf("%w: %q (have %v)", fleet.ErrUnknownMix, req.Mix, fleet.MixNames())
		}
		for _, t := range m.Tenants {
			req.Tenants = append(req.Tenants, FleetTenant{
				Name: t.Name, Kernel: t.Kernel, Scale: t.Scale,
				Sample: t.Sample, Weight: t.Weight,
			})
		}
		// Mix budget overrides fold into the request unless the caller set
		// the space explicitly (caller wins).
		if len(m.Budgets) > 0 && req.Budgets == nil {
			req.Budgets = make(map[string]int64, len(m.Budgets))
		}
		for sp, v := range m.Budgets {
			name := sp.LongString()
			if _, ok := req.Budgets[name]; !ok {
				req.Budgets[name] = v
			}
		}
	}
	if len(req.Tenants) == 0 {
		return nil, badf("missing tenants (or mix)")
	}
	if len(req.Tenants) > MaxTenants {
		return nil, badf("%d tenants exceeds max %d", len(req.Tenants), MaxTenants)
	}
	names := make(map[string]bool, len(req.Tenants))
	for i := range req.Tenants {
		t := &req.Tenants[i]
		if t.Name == "" {
			t.Name = "t" + strconv.Itoa(i)
		}
		if len(t.Name) > 64 {
			return nil, badf("tenant %d: name longer than 64 bytes", i)
		}
		if names[t.Name] {
			return nil, badf("duplicate tenant name %q", t.Name)
		}
		names[t.Name] = true
		if t.Kernel == "" {
			return nil, badf("tenant %q: missing kernel", t.Name)
		}
		if t.Scale == 0 {
			t.Scale = 1
		}
		if err := validateCommon(req.Arch, t.Kernel, t.Scale, t.Sample, req.TimeoutMS); err != nil {
			return nil, fmt.Errorf("tenant %q: %w", t.Name, err)
		}
		if t.Weight == 0 {
			t.Weight = 1
		}
		if t.Weight < 0 || t.Weight > 1000 || t.Weight != t.Weight {
			return nil, badf("tenant %q: weight %v out of (0,1000]", t.Name, t.Weight)
		}
	}
	if req.MenuSize < 0 || req.MenuSize > fleet.MaxMenuSize {
		return nil, badf("menu_size %d out of [0,%d]", req.MenuSize, fleet.MaxMenuSize)
	}
	if req.MenuSize == 0 {
		req.MenuSize = fleet.DefaultMenuSize
	}
	if req.MaxCandidates < 0 {
		return nil, badf("negative max_candidates %d", req.MaxCandidates)
	}
	if req.Parallelism < 0 || req.Parallelism > MaxParallelism {
		return nil, badf("parallelism %d out of [0,%d]", req.Parallelism, MaxParallelism)
	}
	if req.Solver != "" {
		solver, err := fleet.ParseSolver(req.Solver)
		if err != nil {
			return nil, err
		}
		req.Solver = solver.Spec()
	}
	// Normalize the objective to its canonical spelling (default "minmax").
	obj, err := fleet.ParseObjective(req.Objective)
	if err != nil {
		return nil, err
	}
	req.Objective = obj.String()
	req.Mix = "" // fully expanded; the canonical form is tenants+budgets
	req.Arch = canonicalArch(req.Arch)
	return &req, nil
}

// FleetKey is the fleet cache/singleflight key: every request field that
// changes the computed result, canonically spelled. Tenant samples and names
// are %q-quoted so field boundaries cannot be forged by crafted strings;
// budgets render in gpu.Spaces order; weights use the shortest exact float
// form. Timeout is excluded (it bounds, not defines, the result);
// parallelism is excluded for unbudgeted solves (worker-count-invariant) and
// keyed when max_candidates > 0, like RankKey.
func FleetKey(req *FleetRankRequest) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet|%s|o%s|v%s|m%d|c%d", req.Arch, req.Objective, req.Solver, req.MenuSize, req.MaxCandidates)
	if req.MaxCandidates > 0 && req.Parallelism > 0 {
		fmt.Fprintf(&sb, "|p%d", req.Parallelism)
	}
	for _, t := range req.Tenants {
		fmt.Fprintf(&sb, "|t%q:%s:%d:%q:w%s", t.Name, t.Kernel, t.Scale, t.Sample,
			strconv.FormatFloat(t.Weight, 'g', -1, 64))
	}
	if len(req.Budgets) > 0 {
		sb.WriteString("|b")
		for _, sp := range gpu.Spaces {
			if v, ok := req.Budgets[sp.LongString()]; ok {
				fmt.Fprintf(&sb, "%s=%d,", sp.LongString(), v)
			}
		}
	}
	return sb.String()
}

// fleetRank serves POST /v1/fleet/rank: advisor lookup → default solver →
// kernel checks → fleet cache / singleflight / pool.
func (s *Server) fleetRank(ctx context.Context, req *FleetRankRequest) (*FleetRankResponse, string, error) {
	adv, arch, err := s.advisorFor(req.Arch)
	if err != nil {
		return nil, "", err
	}
	req.Arch = arch // normalize before keying the cache
	if req.Solver == "" {
		req.Solver = s.opt.DefaultFleetSolver
	}
	TraceFrom(ctx).SetStrategy("fleet:" + req.Solver)
	for _, t := range req.Tenants {
		if _, ok := kernels.Get(t.Kernel); !ok {
			return nil, "", badKernel(t.Kernel)
		}
	}
	return s.doFleet(ctx, adv, req)
}

// runFleet executes one fleet solve on a worker.
func (s *Server) runFleet(ctx context.Context, adv *advisor.Advisor, req *FleetRankRequest) (*FleetRankResponse, error) {
	s.col.Add(obs.MetricServiceFleetSolvesTotal, 1)
	tenants := make([]fleet.Tenant, len(req.Tenants))
	for i, t := range req.Tenants {
		tenants[i] = fleet.Tenant{
			Name: t.Name, Kernel: t.Kernel, Scale: t.Scale,
			Sample: t.Sample, Weight: t.Weight,
		}
	}
	budgets := fleet.DefaultBudgets(adv.Cfg)
	for name, v := range req.Budgets {
		sp, err := gpu.ParseSpace(name) // decode canonicalized; re-parse for the index
		if err != nil {
			return nil, badf("budget space %q: %v", name, err)
		}
		budgets[sp] = v
	}
	objective, err := fleet.ParseObjective(req.Objective)
	if err != nil {
		return nil, err
	}
	solver, err := fleet.ParseSolver(req.Solver)
	if err != nil {
		return nil, err
	}
	parallelism := s.opt.Parallelism
	if req.Parallelism > 0 {
		parallelism = req.Parallelism
	}
	res, err := fleet.Solve(ctx, adv, tenants, fleet.Options{
		Budgets:       &budgets,
		Objective:     objective,
		MenuSize:      req.MenuSize,
		MaxCandidates: req.MaxCandidates,
		Parallelism:   parallelism,
		Solver:        solver,
		Recorder:      s.col,
	})
	if err != nil {
		return nil, err
	}
	return BuildFleetResponse(req.Arch, res), nil
}

// BuildFleetResponse converts a fleet result into the wire form. It is
// shared by the server and `hmsplace -fleet -json`, so CLI and service
// outputs are interchangeable.
func BuildFleetResponse(arch string, res *fleet.Result) *FleetRankResponse {
	resp := &FleetRankResponse{
		Arch:           arch,
		Solver:         res.Solver,
		Objective:      res.Objective.String(),
		ObjectiveValue: res.ObjectiveValue,
		Independent: &FleetBaseline{
			UnconstrainedFits: res.Independent.UnconstrainedFits,
			Feasible:          res.Independent.Feasible,
			ObjectiveValue:    res.Independent.ObjectiveValue,
		},
		Coverage: &FleetCoverage{
			MenuEvaluated:   res.MenuEvaluated,
			MenuTotal:       res.MenuTotal,
			AssignEvaluated: res.AssignEvaluated,
			Pruned:          res.Pruned,
		},
	}
	for _, a := range res.Assignments {
		fa := FleetAssignment{
			Tenant:      a.Tenant,
			Kernel:      a.Kernel,
			Scale:       a.Scale,
			Placement:   a.Spec,
			PredictedNS: a.PredictedNS,
			BestNS:      a.BestNS,
			Slowdown:    a.Slowdown,
		}
		if a.Weight != 1 {
			fa.Weight = a.Weight
		}
		resp.Tenants = append(resp.Tenants, fa)
	}
	for i, sp := range gpu.Spaces {
		if res.Budgets[i] < 0 {
			continue
		}
		resp.Usage = append(resp.Usage, FleetUsage{
			Space: sp.LongString(),
			Used:  res.Usage[i],
			Limit: res.Budgets[i],
		})
	}
	return resp
}
