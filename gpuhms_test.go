package gpuhms

import (
	"context"
	"errors"
	"sort"
	"testing"
)

// TestPublicAPIQuickstart exercises the documented happy path end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := MustLookupArch("k80")
	adv, err := NewAdvisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Kernel("matrixMul")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adv.RankPlacements(context.Background(), tr, sample, RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranked := res.Ranked
	if len(ranked) != len(EnumeratePlacements(tr, cfg)) {
		t.Errorf("ranked %d of %d placements", len(ranked), len(EnumeratePlacements(tr, cfg)))
	}
	if !sort.SliceIsSorted(ranked, func(i, j int) bool {
		return ranked[i].PredictedNS < ranked[j].PredictedNS
	}) {
		t.Error("ranking must be sorted fastest-first")
	}

	// The top pick must actually beat the sample on the simulator.
	best, err := adv.MeasureOn(tr, sample, ranked[0].Placement)
	if err != nil {
		t.Fatal(err)
	}
	base, err := adv.MeasureOn(tr, sample, sample)
	if err != nil {
		t.Fatal(err)
	}
	if best.TimeNS >= base.TimeNS {
		t.Errorf("advisor pick (%.0f ns) should beat the sample (%.0f ns)",
			best.TimeNS, base.TimeNS)
	}
}

func TestPublicAPICustomTrace(t *testing.T) {
	b := NewTraceBuilder("custom", Launch{Blocks: 4, ThreadsPerBlock: 64, WarpSize: 32})
	x := b.DeclareArray(Array{Name: "x", Type: F32, Len: 1024, ReadOnly: true})
	y := b.DeclareArray(Array{Name: "y", Type: F32, Len: 1024})
	for blk := 0; blk < 4; blk++ {
		for w := 0; w < 2; w++ {
			wb := b.Warp(blk, w)
			wb.LoadCoalesced(x, int64(blk*64+w*32), 32)
			wb.FP32(2)
			wb.StoreCoalesced(y, int64(blk*64+w*32), 32)
		}
	}
	tr := b.MustBuild()

	cfg := MustLookupArch("k80")
	sample, err := ParsePlacement(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPlacement(tr, sample, cfg); err != nil {
		t.Fatal(err)
	}
	target, err := ParsePlacement(tr, "x:T")
	if err != nil {
		t.Fatal(err)
	}

	simr := NewSimulator(cfg)
	prof, err := simr.Run(tr, sample, sample)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(cfg, FullModelOptions())
	pr, err := NewPredictor(m, tr, sample, SampleProfile{TimeNS: prof.TimeNS, Events: prof.Events})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := pr.Predict(target)
	if err != nil {
		t.Fatal(err)
	}
	if pred.TimeNS <= 0 {
		t.Errorf("prediction %g", pred.TimeNS)
	}
}

func TestPublicAPIKernelRegistry(t *testing.T) {
	names := Kernels()
	if len(names) < 15 {
		t.Errorf("only %d bundled kernels", len(names))
	}
	if _, err := Kernel("bogus"); !errors.Is(err, ErrUnknownKernel) {
		t.Errorf("Kernel(bogus) err = %v, want ErrUnknownKernel", err)
	}
}

func TestPublicAPIAddressMapping(t *testing.T) {
	res := DetectAddressMapping(MustLookupArch("k80"))
	if res.HitLatencyNS != 352 || res.ConflictLatencyNS != 1008 {
		t.Errorf("latencies %g/%g", res.HitLatencyNS, res.ConflictLatencyNS)
	}
	if len(res.Bits(0)) == 0 {
		t.Error("no column bits detected")
	}
}

func TestParseSpaceFacade(t *testing.T) {
	sp, err := ParseSpace("2T")
	if err != nil || sp != Texture2D {
		t.Errorf("ParseSpace: %v %v", sp, err)
	}
}
