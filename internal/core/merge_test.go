package core

import (
	"math/rand"
	"reflect"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// mergeSampleSize caps the placements checked per (kernel, arch): spaces up
// to this size are covered exhaustively, larger ones by a seeded sample.
const mergeSampleSize = 512

// archSweepKernels is the kernel set of the multi-arch sweeps: the full
// corpus, trimmed under the race detector to a subset spanning tiny to
// medium placement spaces.
func archSweepKernels() []string {
	if raceEnabled {
		return []string{"fft", "kmeans", "pathfinder"}
	}
	return kernels.Names()
}

// TestMergeFastMatchesExact is the differential oracle of the two merge
// walks: wherever the l2EvictionFree screen admits a placement to mergeFast,
// mergeFast and mergeExact — each on a fresh scratch, with inter-arrival
// collection on — must produce deeply equal Analyses. It covers every bundled
// kernel (archSweepKernels) on every registered arch, over all legal
// placements or a seeded sample of mergeSampleSize when the space is larger,
// and logs the screen's pass rate per arch so a screen that stops admitting
// anything is visible.
func TestMergeFastMatchesExact(t *testing.T) {
	for _, arch := range gpu.Names() {
		cfg := gpu.MustLookup(arch)
		m := NewModel(cfg, FullOptions())
		newScratch := func() *mergeScratch { return newMergeScratch(cfg, m.Mapping, m.distMode()) }
		checked, passed := 0, 0
		for _, name := range archSweepKernels() {
			spec := kernels.MustGet(name)
			tr := spec.Trace(1)
			sample, err := spec.SamplePlacement(tr)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch, name, err)
			}
			prog := newProgram(cfg, tr)
			cc := newContribCache(prog)
			sampleLayout := placement.NewLayout(tr, sample)

			pls := placement.Enumerate(tr, cfg)
			if len(pls) > mergeSampleSize {
				rng := rand.New(rand.NewSource(1))
				rng.Shuffle(len(pls), func(i, j int) { pls[i], pls[j] = pls[j], pls[i] })
				pls = pls[:mergeSampleSize]
			}
			for _, pl := range pls {
				layout := placement.Retarget(tr, sampleLayout, sample, pl)
				contribs := make([]*contribution, len(pl.Spaces))
				for i, sp := range pl.Spaces {
					contribs[i], _ = cc.get(trace.ArrayID(i), sp, addrKeyOf(layout, sp, i))
				}
				var constSim, texSim *groupSim
				if hasSpace(contribs, true) {
					constSim = prog.groupFor(&cc.groups, true, contribs)
				}
				if hasSpace(contribs, false) {
					texSim = prog.groupFor(&cc.groups, false, contribs)
				}
				checked++
				if !prog.l2EvictionFree(contribs, constSim, texSim, newScratch()) {
					continue
				}
				passed++
				fast := prog.mergeFast(pl, contribs, constSim, texSim, newScratch())
				exact := prog.mergeExact(pl, contribs, newScratch())
				if !reflect.DeepEqual(fast, exact) {
					t.Fatalf("%s/%s %s: mergeFast diverges from mergeExact:\nfast:  %+v\nexact: %+v",
						arch, name, pl.Format(tr), fast, exact)
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no placements checked", arch)
		}
		t.Logf("%s: l2EvictionFree admitted %d of %d placements (%.1f%%) to the fast merge",
			arch, passed, checked, 100*float64(passed)/float64(checked))
	}
}
