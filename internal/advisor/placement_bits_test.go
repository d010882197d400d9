package advisor

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
)

// placementBitsKernels are the kernels with the largest placement spaces,
// the ones an exhaustive search spends its time on.
var placementBitsKernels = []string{"spmv", "blackscholes", "mriq", "cfd", "s3d", "matrixMul"}

// TestPlacementBitsGolden pins the queuing terms of every legal placement,
// not just the top-K a search keeps: an untrained full model profiled on the
// kernel's sample predicts each placement in enumeration order, and one
// SHA-256 per (arch, kernel) over the bits of TimeNS, DRAMLatNS,
// QueueDelayNS and FixedPointIters is compared with
// testdata/placement_bits.golden. Under -race or -short only k80 runs. On a
// mismatch the failure prints the line as it would be recorded.
func TestPlacementBitsGolden(t *testing.T) {
	golden := readPlacementBitsGolden(t)
	arches := []string{"k80", "chiplet"}
	if raceEnabled || testing.Short() {
		arches = arches[:1]
	}
	ctx := context.Background()
	for _, arch := range arches {
		cfg := gpu.MustLookup(arch)
		a := &Advisor{Cfg: cfg, Model: core.NewModel(cfg, core.FullOptions())}
		for _, name := range placementBitsKernels {
			k := kernels.MustGet(name)
			tr := k.Trace(1)
			sample, err := k.SamplePlacement(tr)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch, name, err)
			}
			pr, err := a.PredictorContext(ctx, tr, sample)
			if err != nil {
				t.Fatalf("%s/%s: %v", arch, name, err)
			}
			h := sha256.New()
			var buf [32]byte
			n := 0
			placement.EnumerateSeq(tr, cfg, func(p *placement.Placement) bool {
				pred, err := pr.Predict(p)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", arch, name, p, err)
				}
				binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(pred.TimeNS))
				binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(pred.DRAMLatNS))
				binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(pred.QueueDelayNS))
				binary.LittleEndian.PutUint64(buf[24:], uint64(pred.FixedPointIters))
				h.Write(buf[:])
				n++
				return true
			})
			key := arch + " " + name
			got := fmt.Sprintf("%d %s", n, hex.EncodeToString(h.Sum(nil)))
			if got != golden[key] {
				t.Errorf("placement bits moved: %s %s (golden %q)", key, got, golden[key])
			}
		}
	}
}

// readPlacementBitsGolden loads "arch kernel placements sha256" lines.
func readPlacementBitsGolden(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("testdata/placement_bits.golden")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		if fs := strings.Fields(line); len(fs) == 4 {
			out[fs[0]+" "+fs[1]] = fs[2] + " " + fs[3]
		}
	}
	return out
}
