package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gpuhms/internal/gpu"
)

// TestValidateSweep runs the whole-corpus acceptance sweep: every kernel's
// placements predicted and measured, with bounded error and mostly-correct
// best-placement picks.
func TestValidateSweep(t *testing.T) {
	rep, err := sharedCtx.Validate()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Render())
	if len(rep.Rows) < 20 {
		t.Fatalf("only %d kernels swept", len(rep.Rows))
	}
	if len(rep.Skipped) != 0 {
		t.Errorf("k80 skipped %v, want none", rep.Skipped)
	}
	if mean := rep.MeanError(); mean > 30 {
		t.Errorf("grand mean error %.1f%% too high", mean)
	}
	if rate := rep.BestAgreementRate(); rate < 0.5 {
		t.Errorf("best-placement agreement %.0f%% too low", 100*rate)
	}
	for _, row := range rep.Rows {
		if row.Placements < 2 {
			t.Errorf("%s swept only %d placements", row.Kernel, row.Placements)
		}
		if row.MaxErrPct > 150 {
			t.Errorf("%s max error %.1f%% — model diverged", row.Kernel, row.MaxErrPct)
		}
	}
}

// TestValidateSkipsTargetsThatDoNotFit runs the sweep on the other
// registered arches (TestValidateSweep covers the K80): the K80-sized
// placement tests that exceed an architecture's capacities are skipped and
// counted instead of aborting the sweep.
func TestValidateSkipsTargetsThatDoNotFit(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and sweeps the corpus per architecture; skipped in -short")
	}
	for _, arch := range []string{"fermi", "hbm", "chiplet"} {
		rep, err := NewContext(gpu.MustLookup(arch), 1).Validate()
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		t.Logf("%s: grand mean error %.1f%%, best agreement %.0f%%, %d skipped",
			arch, rep.MeanError(), 100*rep.BestAgreementRate(), len(rep.Skipped))
		if arch != "chiplet" {
			if len(rep.Skipped) != 0 {
				t.Errorf("%s skipped %v, want none", arch, rep.Skipped)
			}
			continue
		}
		if !slices.Contains(rep.Skipped, "neuralnet a0:C,a1:G,a2:G") {
			t.Errorf("chiplet skipped %v, want neuralnet a0:C,a1:G,a2:G among them", rep.Skipped)
		}
		if !strings.Contains(rep.Render(), fmt.Sprintf("skipped %d placement tests", len(rep.Skipped))) {
			t.Error("render does not report the skipped tests")
		}
	}
}

// TestSensitivitySweep checks the HMS design-space exploration: across
// perturbed architectures the advisor's picks must mostly match the
// simulated hardware's best, and never cost much when they don't.
func TestSensitivitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("re-trains per architecture; skipped in -short")
	}
	rep, err := sharedCtx.Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Render())
	if len(rep.Rows) != len(SensitivityKernels)*5 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if rate := rep.AgreementRate(); rate < 0.6 {
		t.Errorf("agreement rate %.0f%% too low", 100*rate)
	}
	if regret := rep.MeanRegret(); regret > 15 {
		t.Errorf("mean regret %.1f%% too high", regret)
	}
	if regret := rep.MaxRegret(); regret > 30 {
		t.Errorf("worst regret %.1f%% too high", regret)
	}
}
