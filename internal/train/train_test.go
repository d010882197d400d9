package train

import (
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
)

// TestTestsSkipTargetsThatDoNotFit checks the enumerator on both sides of a
// capacity boundary: neuralnet's constant-memory test fits the K80's 64 KiB
// constant segment but not the chiplet's 32 KiB one, and every placement it
// keeps passes placement.Check there.
func TestTestsSkipTargetsThatDoNotFit(t *testing.T) {
	for arch, wantSkipped := range map[string]int{"k80": 0, "chiplet": 1} {
		cfg := gpu.MustLookup(arch)
		k, err := New(cfg, 1).Tests("neuralnet")
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		if len(k.Skipped) != wantSkipped {
			t.Fatalf("%s: skipped %v, want %d", arch, k.Skipped, wantSkipped)
		}
		if wantSkipped > 0 && k.Skipped[0].String() != "a0:C,a1:G,a2:G" {
			t.Errorf("%s: skipped %s, want a0:C,a1:G,a2:G", arch, k.Skipped[0])
		}
		if got, want := len(k.Placements)+len(k.Skipped), 1+len(kernels.MustGet("neuralnet").PlacementTests); got != want {
			t.Errorf("%s: %d placements + skipped, want %d", arch, got, want)
		}
		if !k.Placements[0].Equal(k.Sample) {
			t.Errorf("%s: placements do not open with the sample", arch)
		}
		for _, pl := range k.Placements {
			if err := placement.Check(k.Trace, pl, cfg); err != nil {
				t.Errorf("%s: kept %s: %v", arch, pl, err)
			}
		}
	}
}
