package memsys

import (
	"slices"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// TestResolveMemoMatchesDirect compares the memoized ResolveScratch with
// lane-by-lane resolution, instruction by instruction, on every bundled
// kernel's trace: on every arch (k80 only under -short or -race) and every
// memory space the arch offers, with all arrays placed in that space. One
// Scratch serves each arch's whole sweep, so a kernel's entries recorded
// under one space are live while the next space is resolved. Every space but
// the 2D texture must also be served from the memo for most accesses, so a
// memo that never hits cannot pass.
func TestResolveMemoMatchesDirect(t *testing.T) {
	archs := gpu.Names()
	if testing.Short() || raceEnabled {
		archs = []string{"k80"}
	}
	traces := make([]*trace.Trace, 0, len(kernels.Names()))
	for _, name := range kernels.Names() {
		traces = append(traces, kernels.MustGet(name).Trace(1))
	}
	for _, arch := range archs {
		cfg := gpu.MustLookup(arch)
		h := NewHierarchy(cfg)
		var memo, direct Scratch
		var accesses, hits [gpu.NumSpaces]int
		for _, tr := range traces {
			for _, sp := range gpu.Spaces {
				if sp.Remote() && !cfg.HasRemote() {
					continue
				}
				pl := placement.New(len(tr.Arrays))
				for i := range pl.Spaces {
					pl.Spaces[i] = sp
				}
				b := &Binding{Trace: tr, Place: pl, Layout: placement.NewLayout(tr, pl), Tex2DShift: cfg.TextureBlockShift}
				for wi := range tr.Warps {
					for ii := range tr.Warps[wi].Inst {
						in := &tr.Warps[wi].Inst[ii]
						if !in.Op.IsMem() {
							continue
						}
						accesses[sp]++
						if key, _, ok := h.memoKey(b, in, sp); ok && memo.memo.tr == tr {
							if e, seen := memo.memo.index[key]; seen && e >= 0 {
								hits[sp]++
							}
						}
						got := h.ResolveScratch(b, in, &memo)
						want := h.resolve(b, in, sp, &direct)
						if got.Space != want.Space || got.Transactions != want.Transactions ||
							got.ReplayGlobalDiv != want.ReplayGlobalDiv || got.ReplayConstDiv != want.ReplayConstDiv ||
							got.ReplayShared != want.ReplayShared || got.ReplayAtomic != want.ReplayAtomic ||
							!slices.Equal(got.Lines, want.Lines) {
							t.Fatalf("%s %s %s warp %d inst %d: memoized %+v, lane by lane %+v (lanes %v)",
								arch, sp, tr.Kernel, wi, ii, got, want, tr.Lanes(in, nil))
						}
					}
				}
			}
		}
		for _, sp := range gpu.Spaces {
			if accesses[sp] > 0 && sp.Base() != gpu.Texture2D && 2*hits[sp] < accesses[sp] {
				t.Errorf("%s %s: the memo served %d of %d accesses, want most", arch, sp, hits[sp], accesses[sp])
			}
		}
	}
}
