package sim

import (
	"sync"

	"gpuhms/internal/dram"
	"gpuhms/internal/gpu"
	"gpuhms/internal/memsys"
)

// runScratch is the per-run working state of RunContext — the cache
// hierarchy, per-SM caches, the event-driven DRAM system, and the warp
// scheduling arrays. Building it from scratch costs ~9MB and ~100k
// allocations per run, so completed runs return theirs to a pool keyed by
// config and the next run on the same architecture resets and reuses it.
type runScratch struct {
	hier       *memsys.Hierarchy
	smCaches   []*memsys.SMCaches
	dramSys    *dram.System
	warps      []warpState
	order      []int
	smQueue    [][]int
	smQHead    []int
	smResident []int
	smFree     []float64
	mem        memsys.Scratch
	dram       []uint64 // one access's DRAM lines, reused across accesses
}

// scratchPools maps the architecture a pooled scratch was built for to a
// *sync.Pool of *runScratch. Config is keyed by pointer: the advisor and
// experiment layers thread one *gpu.Config through every simulator they
// build, and two distinct Config values simply maintain separate pools.
var scratchPools sync.Map

// getScratch returns run scratch for the architecture, reset and ready:
// either a pooled one or a freshly built one.
func getScratch(cfg *gpu.Config) *runScratch {
	p, ok := scratchPools.Load(cfg)
	if !ok {
		p, _ = scratchPools.LoadOrStore(cfg, &sync.Pool{})
	}
	if sc, ok := p.(*sync.Pool).Get().(*runScratch); ok {
		sc.reset()
		return sc
	}
	sc := &runScratch{
		hier:       memsys.NewHierarchy(cfg),
		smCaches:   make([]*memsys.SMCaches, cfg.SMs),
		dramSys:    dram.NewSystem(cfg.DRAM, dram.DefaultMapping(cfg.DRAM)),
		smQueue:    make([][]int, cfg.SMs),
		smQHead:    make([]int, cfg.SMs),
		smResident: make([]int, cfg.SMs),
		smFree:     make([]float64, cfg.SMs),
	}
	for i := range sc.smCaches {
		sc.smCaches[i] = memsys.NewSMCaches(cfg)
	}
	return sc
}

// putScratch returns scratch to its architecture's pool. The resolution
// memo is emptied first: its pattern ids belong to the run's trace, which
// the pooled scratch must not keep alive.
func putScratch(cfg *gpu.Config, sc *runScratch) {
	p, ok := scratchPools.Load(cfg)
	if ok {
		sc.mem.Reset()
		p.(*sync.Pool).Put(sc)
	}
}

// reset returns pooled scratch to a fresh-run state: caches invalidated,
// DRAM system closed, scheduling arrays emptied (capacity kept).
func (sc *runScratch) reset() {
	sc.hier.Reset()
	for _, sm := range sc.smCaches {
		sm.Reset()
	}
	sc.dramSys.Reset()
	sc.order = sc.order[:0]
	for i := range sc.smQueue {
		sc.smQueue[i] = sc.smQueue[i][:0]
	}
	clear(sc.smQHead)
	clear(sc.smResident)
	clear(sc.smFree)
}

// warpsFor sizes the warp-state array for a run, reusing the pending-load
// slices that survived in place.
func (sc *runScratch) warpsFor(n int) []warpState {
	if cap(sc.warps) < n {
		sc.warps = make([]warpState, n)
	} else {
		sc.warps = sc.warps[:n]
		for i := range sc.warps {
			sc.warps[i] = warpState{pending: sc.warps[i].pending[:0]}
		}
	}
	return sc.warps
}
