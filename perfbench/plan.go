package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"gpuhms/internal/kernels"
	"gpuhms/internal/service"
)

// Workload names, as passed to --workload.
const (
	coldProfile      = "cold-profile"
	searchExhaustive = "search-exhaustive"
	cachedMix        = "cached-mix"
)

var workloadNames = []string{coldProfile, searchExhaustive, cachedMix}

// arches are the four registered architectures the service is built with.
// The list is pinned rather than read from the registry so that a newly
// registered architecture changes the benchmark only by an explicit edit.
var arches = []string{"k80", "fermi", "hbm", "chiplet"}

// Request kinds.
const (
	kindRank    = "rank"
	kindCompare = "compare"
	kindFleet   = "fleet"
	kindKernels = "kernels"
	kindArches  = "arches"
)

// request is one generated HTTP request. The service only ever sees method,
// path and body.
type request struct {
	kind   string
	method string
	path   string
	body   []byte
	// warm is, on cached-mix, the index of the prewarmed request this one
	// repeats; -1 elsewhere.
	warm int
}

// plan is one workload's input for one seed.
type plan struct {
	workload string
	// cold plans send list once per pass, each pass to a fresh service, so
	// every POST is a result-cache miss.
	cold bool
	// warm holds cached-mix's distinct requests, sent once before timing.
	warm []request
	// list is one cold pass, or cached-mix's cyclic request sequence.
	list []request
}

// combo is one (strategy, top_k) pair of a rank request.
type combo struct {
	strategy string
	topK     int
}

// rankCombos are the cold-profile rank variants. Each (arch, kernel) tuple
// draws three distinct ones, so the three requests are three cache keys that
// share one sample profile.
var rankCombos = []combo{
	{"greedy", 1}, {"greedy", 3}, {"greedy", 5}, {"greedy", 10},
	{"beam-4", 1}, {"beam-4", 3}, {"beam-4", 5}, {"beam-4", 10},
}

// compareCombo is reserved for compare requests: no rank request uses it,
// so a compare's per-arch sub-rankings are cache misses too.
var compareCombo = combo{"beam-4", 2}

// coldCompareKernels are compared across k80 and chiplet. Each is assigned
// to exactly one of the two in the rank tuples (see coldArch), so one of its
// two sample profiles repeats an earlier one; tablelookup carries the golden
// k80-versus-chiplet divergence check.
var coldCompareKernels = []string{
	"tablelookup", "bfs", "dct8x8", "nbody", "sort", "transpose", "scatteradd", "qtc", "kmeans",
}

// fleetCase is one fleet request: a bundled mix on one architecture.
type fleetCase struct{ arch, mix string }

// coldFleet stays on k80 and hbm: there every mix's menus build in under a
// second, while fermi's and chiplet's shared-squeeze menus take 2–4 s on one
// CPU and a single such straggler would set the length of a whole pass.
var coldFleet = []fleetCase{
	{"k80", "balanced"}, {"k80", "shared-squeeze"}, {"k80", "shared-storm"},
	{"hbm", "balanced"}, {"hbm", "shared-storm"},
}

var fleetSolvers = []string{"greedy", "beam-2", "beam-4"}

// exhaustiveKernels have the largest placement spaces (chiplet spmv: 3600).
var exhaustiveKernels = []string{"spmv", "blackscholes", "mriq", "cfd", "s3d", "matrixMul"}

// cachedRankKernels are cheap to prewarm and give replies of similar size.
var cachedRankKernels = []string{
	"bfs", "dct8x8", "histogram", "md5hash", "scan", "scatteradd",
	"sort", "s3d", "stencil2d", "transpose", "triad", "vecadd",
}

// cachedDeck is the exact request-kind mix of every 100 cached-mix requests;
// exact shares keep the replayed reply sizes, and so the encode cost, equal
// across seeds.
var cachedDeck = []struct {
	kind  string
	count int
}{{kindRank, 75}, {kindCompare, 10}, {kindFleet, 5}, {kindKernels, 5}, {kindArches, 5}}

// cachedDecks is the number of shuffled decks in the cyclic sequence.
const cachedDecks = 40

// tinySet is the subset a smoke test keeps of each list.
var tinySet = map[string]bool{
	"fft": true, "tablelookup": true, "vecadd": true, "transpose": true,
	"spmv/k80": true, "s3d/chiplet": true, "k80/balanced": true,
}

// coldArch assigns kernel i of the sorted registry one architecture, round
// robin: every kernel and every arch appear in each pass, at a quarter of
// the cost of the full cross product.
func coldArch(i int) string { return arches[i%len(arches)] }

// newPlan generates a workload's requests from seed. tiny keeps a few
// requests of each kind, for smoke tests.
func newPlan(workload string, seed int64, tiny bool) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{workload: workload}
	switch workload {
	case coldProfile:
		p.cold = true
		for i, k := range kernels.Names() {
			if tiny && !tinySet[k] {
				continue
			}
			for _, j := range rng.Perm(len(rankCombos))[:3] {
				p.list = append(p.list, rankRequest(coldArch(i), k, rankCombos[j]))
			}
		}
		for _, k := range coldCompareKernels {
			if tiny && !tinySet[k] {
				continue
			}
			p.list = append(p.list, compareRequest(k, []string{"k80", "chiplet"}, compareCombo))
		}
		for _, f := range coldFleet {
			solver := fleetSolvers[rng.Intn(len(fleetSolvers))]
			if tiny && !tinySet[f.arch+"/"+f.mix] {
				continue
			}
			p.list = append(p.list, fleetRequest(f.arch, f.mix, solver))
		}
		rng.Shuffle(len(p.list), func(i, j int) { p.list[i], p.list[j] = p.list[j], p.list[i] })
	case searchExhaustive:
		p.cold = true
		for _, a := range []string{"k80", "chiplet"} {
			for _, k := range exhaustiveKernels {
				if tiny && !tinySet[k+"/"+a] {
					continue
				}
				p.list = append(p.list, rankRequest(a, k, combo{"exhaustive", 10}))
			}
		}
		rng.Shuffle(len(p.list), func(i, j int) { p.list[i], p.list[j] = p.list[j], p.list[i] })
	case cachedMix:
		p.warm, p.list = cachedRequests(rng, tiny)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	return p, nil
}

// cachedRequests builds cached-mix's prewarm set and its cyclic sequence of
// repeats: shuffled decks with the exact cachedDeck shares, each kind
// cycling through a seeded permutation of its prewarmed requests.
func cachedRequests(rng *rand.Rand, tiny bool) (warm, seq []request) {
	byKind := map[string][]int{}
	add := func(r request) {
		byKind[r.kind] = append(byKind[r.kind], len(warm))
		warm = append(warm, r)
	}
	for _, a := range arches {
		for _, k := range cachedRankKernels {
			strategy := []string{"greedy", "beam-4"}[rng.Intn(2)]
			if tiny && !(tinySet[k] && a == "k80") {
				continue
			}
			add(rankRequest(a, k, combo{strategy, 5}))
		}
	}
	add(compareRequest("tablelookup", []string{"k80", "chiplet"}, compareCombo))
	if !tiny {
		add(compareRequest("sort", []string{"fermi", "hbm"}, compareCombo))
		add(compareRequest("transpose", nil, compareCombo)) // every warm arch
		add(fleetRequest("hbm", "shared-storm", "beam-4"))
	}
	add(fleetRequest("k80", "balanced", "greedy"))
	add(getRequest(kindKernels, "/v1/kernels"))
	add(getRequest(kindArches, "/v1/arches"))

	next := map[string]int{}
	perm := map[string][]int{}
	for _, c := range cachedDeck {
		perm[c.kind] = rng.Perm(len(byKind[c.kind]))
	}
	for d := 0; d < cachedDecks; d++ {
		deck := make([]request, 0, 100)
		for _, c := range cachedDeck {
			idx := byKind[c.kind]
			for n := 0; n < c.count; n++ {
				w := idx[perm[c.kind][next[c.kind]%len(idx)]]
				next[c.kind]++
				r := warm[w]
				r.warm = w
				deck = append(deck, r)
			}
		}
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		seq = append(seq, deck...)
	}
	return warm, seq
}

func rankRequest(arch, kernel string, c combo) request {
	return postRequest(kindRank, "/v1/rank", service.RankRequest{
		Arch: arch, Kernel: kernel, TopK: c.topK, Strategy: c.strategy,
	})
}

func compareRequest(kernel string, archs []string, c combo) request {
	return postRequest(kindCompare, "/v1/compare", service.CompareRequest{
		Arches: archs, Kernel: kernel, TopK: c.topK, Strategy: c.strategy,
	})
}

func fleetRequest(arch, mix, solver string) request {
	return postRequest(kindFleet, "/v1/fleet/rank", service.FleetRankRequest{
		Arch: arch, Mix: mix, Solver: solver,
	})
}

func postRequest(kind, path string, v any) request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return request{kind: kind, method: http.MethodPost, path: path, body: body, warm: -1}
}

func getRequest(kind, path string) request {
	return request{kind: kind, method: http.MethodGet, path: path, warm: -1}
}

// profileKeys lists the (arch, kernel, scale, sample) tuples whose sample
// placement the service profiles to answer r on a cache miss: one for a
// rank, one per arch for a compare. Fleet menus profile inside
// fleet.NewProblem and are not listed; GETs profile nothing.
func profileKeys(r request) ([]string, error) {
	key := func(arch, kernel string, scale int, sample string) string {
		return fmt.Sprintf("%s|%s|%d|%s", arch, kernel, scale, sample)
	}
	switch r.kind {
	case kindRank:
		req, err := service.DecodeRankRequest(r.body)
		if err != nil {
			return nil, err
		}
		return []string{key(req.Arch, req.Kernel, req.Scale, req.Sample)}, nil
	case kindCompare:
		req, err := service.DecodeCompareRequest(r.body)
		if err != nil {
			return nil, err
		}
		archs := req.Arches
		if len(archs) == 0 {
			archs = sortedArches()
		}
		var keys []string
		for _, a := range archs {
			keys = append(keys, key(a, req.Kernel, req.Scale, req.Sample))
		}
		return keys, nil
	}
	return nil, nil
}

// repeatShare is the share of the list's sample profiles that repeat an
// earlier tuple of the same list — the planned value of the traced
// sim.profile_repeat_frac.
func repeatShare(list []request) (float64, error) {
	seen := map[string]bool{}
	var n, rep int
	for _, r := range list {
		keys, err := profileKeys(r)
		if err != nil {
			return 0, err
		}
		for _, k := range keys {
			n++
			if seen[k] {
				rep++
			}
			seen[k] = true
		}
	}
	if n == 0 {
		return 0, nil
	}
	return float64(rep) / float64(n), nil
}

// kindShares counts the list's requests by kind.
func kindShares(list []request) map[string]float64 {
	out := map[string]float64{}
	for _, r := range list {
		out[r.kind]++
	}
	for k := range out {
		out[k] /= float64(len(list))
	}
	return out
}
