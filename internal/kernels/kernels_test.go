package kernels

import (
	"errors"
	"reflect"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	// The Table IV roster plus the micro and extension corpora.
	want := []string{
		"bfs", "blackscholes", "cfd", "convolution", "dct8x8", "fft",
		"histogram", "kmeans", "matrixMul", "md", "md5hash", "mriq",
		"nbody", "neuralnet", "pathfinder", "qtc", "reduction", "s3d",
		"scan", "scatteradd", "sort", "spmv", "stencil2d", "tablelookup",
		"transpose", "triad", "vecadd",
	}
	got := Names()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("kernel roster:\n got %v\nwant %v", got, want)
	}
	if _, ok := Get("bogus"); ok {
		t.Error("unknown kernel should not resolve")
	}
	// Table IV kernels carry their original suite; extensions are marked.
	for _, n := range []string{"nbody", "kmeans", "blackscholes", "pathfinder", "dct8x8", "mriq", "histogram", "scatteradd"} {
		if MustGet(n).Suite != "ext" {
			t.Errorf("%s should be in the extension corpus", n)
		}
	}
}

func TestTrainingEvalSplit(t *testing.T) {
	training := map[string]bool{}
	for _, n := range TrainingNames() {
		training[n] = true
	}
	// Table IV bottom half.
	for _, n := range []string{"convolution", "md", "matrixMul", "spmv", "transpose", "cfd", "triad", "qtc"} {
		if !training[n] {
			t.Errorf("%s should be a training kernel", n)
		}
	}
	// Table IV top half.
	for _, n := range []string{"bfs", "fft", "neuralnet", "reduction", "scan", "sort", "stencil2d", "md5hash", "s3d"} {
		if training[n] {
			t.Errorf("%s should be an evaluation kernel", n)
		}
	}
	if len(TrainingNames())+len(EvalNames()) != len(Names()) {
		t.Error("split must partition the roster")
	}
}

// TestAllKernelsProduceValidLegalTraces exercises every generator: the trace
// validates, the sample placement and all placement tests are legal, and
// generation is deterministic.
func TestAllKernelsProduceValidLegalTraces(t *testing.T) {
	cfg := gpu.KeplerK80()
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec := MustGet(name)
			tr := spec.Trace(1)
			if err := tr.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			if tr.Launch.TotalWarps() != len(tr.Warps) {
				t.Errorf("launch says %d warps, trace has %d",
					tr.Launch.TotalWarps(), len(tr.Warps))
			}
			sample, err := spec.SamplePlacement(tr)
			if err != nil {
				t.Fatalf("sample: %v", err)
			}
			if err := placement.Check(tr, sample, cfg); err != nil {
				t.Fatalf("sample illegal: %v", err)
			}
			targets, err := spec.Targets(tr)
			if err != nil {
				t.Fatalf("targets: %v", err)
			}
			if len(targets) != len(spec.PlacementTests) {
				t.Errorf("%d targets for %d tests", len(targets), len(spec.PlacementTests))
			}
			for i, target := range targets {
				if err := placement.Check(tr, target, cfg); err != nil {
					t.Errorf("test %d (%s) illegal: %v", i, spec.PlacementTests[i], err)
				}
				if target.Equal(sample) {
					t.Errorf("test %d equals the sample placement", i)
				}
			}

			// Determinism: regeneration yields an identical trace.
			tr2 := spec.Trace(1)
			if !reflect.DeepEqual(tr, tr2) {
				t.Error("generator is not deterministic")
			}
		})
	}
}

func TestTargetsApplyOnlyNamedOverrides(t *testing.T) {
	spec := MustGet("spmv")
	tr := spec.Trace(1)
	sample, _ := spec.SamplePlacement(tr)
	targets, err := spec.Targets(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Test "rowD:S,d_vec:G": only rowD and d_vec may differ from sample.
	target := targets[0]
	rowD, _ := tr.ArrayByName("rowD")
	dvec, _ := tr.ArrayByName("d_vec")
	for i := range tr.Arrays {
		id := trace.ArrayID(i)
		if id == rowD || id == dvec {
			continue
		}
		if target.Of(id) != sample.Of(id) {
			t.Errorf("array %s changed unexpectedly", tr.Arrays[i].Name)
		}
	}
	if target.Of(rowD) != gpu.Shared || target.Of(dvec) != gpu.Global {
		t.Errorf("overrides not applied: rowD=%v d_vec=%v", target.Of(rowD), target.Of(dvec))
	}
}

func TestScaleGrowsProblems(t *testing.T) {
	for _, name := range []string{"vecadd", "matrixMul", "spmv"} {
		small := MustGet(name).Trace(1)
		big := MustGet(name).Trace(2)
		if len(big.Warps) <= len(small.Warps) {
			t.Errorf("%s: scale 2 has %d warps vs %d", name, len(big.Warps), len(small.Warps))
		}
	}
	// Scale < 1 clamps to 1.
	if got := MustGet("vecadd").Trace(0); len(got.Warps) != len(MustGet("vecadd").Trace(1).Warps) {
		t.Error("scale 0 should clamp to 1")
	}
}

// Structural spot checks: the generators must reproduce the access-pattern
// features the paper's analysis depends on.
func TestKernelStructuralProperties(t *testing.T) {
	t.Run("transpose stores are fully strided", func(t *testing.T) {
		tr := MustGet("transpose").Trace(1)
		var store *trace.Inst
		for i := range tr.Warps[0].Inst {
			if tr.Warps[0].Inst[i].Op == trace.OpStore {
				store = &tr.Warps[0].Inst[i]
				break
			}
		}
		if store == nil {
			t.Fatal("no store found")
		}
		// Adjacent lanes within a row of the tile are a full matrix column
		// apart after transposition.
		dim := tr.Arrays[0].Width
		if store.Index[1]-store.Index[0] != int64(dim) {
			t.Errorf("store lane stride = %d, want %d", store.Index[1]-store.Index[0], dim)
		}
	})

	t.Run("neuralnet weight rows are lane-strided", func(t *testing.T) {
		tr := MustGet("neuralnet").Trace(1)
		wID, _ := tr.ArrayByName("weights")
		nIn := int64(tr.Arrays[wID].Width)
		for i := range tr.Warps[0].Inst {
			in := &tr.Warps[0].Inst[i]
			if in.Op == trace.OpLoad && in.Array == wID {
				if in.Index[1]-in.Index[0] != nIn {
					t.Errorf("weights lane stride = %d, want %d", in.Index[1]-in.Index[0], nIn)
				}
				return
			}
		}
		t.Fatal("no weights load found")
	})

	t.Run("fft exchanges through the scratch buffer conflict", func(t *testing.T) {
		tr := MustGet("fft").Trace(1)
		sID, _ := tr.ArrayByName("smem")
		found := false
		for i := range tr.Warps[0].Inst {
			in := &tr.Warps[0].Inst[i]
			if in.Op == trace.OpStore && in.Array == sID {
				// Stride-8 words on 32 banks → multi-way conflicts.
				if (in.Index[1]-in.Index[0])%8 == 0 && in.Index[1] != in.Index[0] {
					found = true
				}
				break
			}
		}
		if !found {
			t.Error("fft scratch stores should be power-of-two strided")
		}
	})

	t.Run("md neighbor list is j-major coalesced", func(t *testing.T) {
		tr := MustGet("md").Trace(1)
		nlID, _ := tr.ArrayByName("neighList")
		for i := range tr.Warps[0].Inst {
			in := &tr.Warps[0].Inst[i]
			if in.Op == trace.OpLoad && in.Array == nlID {
				if in.Index[1]-in.Index[0] != 1 {
					t.Errorf("neighList loads should be unit stride, got %d",
						in.Index[1]-in.Index[0])
				}
				return
			}
		}
		t.Fatal("no neighList load found")
	})

	t.Run("md5hash is compute-dominated", func(t *testing.T) {
		st := trace.ComputeStats(MustGet("md5hash").Trace(1))
		if st.MemInsts()*20 > st.Executed() {
			t.Errorf("md5hash should be >95%% compute: mem=%d exec=%d",
				st.MemInsts(), st.Executed())
		}
	})

	t.Run("convolution filter reads broadcast", func(t *testing.T) {
		tr := MustGet("convolution").Trace(1)
		kID, _ := tr.ArrayByName("c_Kernel")
		for i := range tr.Warps[0].Inst {
			in := &tr.Warps[0].Inst[i]
			if in.Op == trace.OpLoad && in.Array == kID {
				for l := 1; l < 32; l++ {
					if in.Index[l] != in.Index[0] {
						t.Fatal("filter load should broadcast one element")
					}
				}
				return
			}
		}
		t.Fatal("no filter load found")
	})
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet of unknown kernel should panic")
		}
	}()
	MustGet("nope")
}

// TestResolve pins the one request-to-sample path: the kernel's own sample by
// default, an override when given, the placement errors unwrapped, and an
// unknown name wrapping hmserr.ErrUnknownKernel.
func TestResolve(t *testing.T) {
	cfg := gpu.MustLookup("k80")
	tr, sample, err := Resolve(cfg, "spmv", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sample.Format(tr), "val:G,cols:G,rowD:G,d_vec:T,out:G"; got != want {
		t.Errorf("default sample %s, want %s", got, want)
	}
	tr, sample, err = Resolve(cfg, "spmv", 2, "val:T")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sample.Format(tr), "val:T,cols:G,rowD:G,d_vec:G,out:G"; got != want {
		t.Errorf("override sample %s, want %s", got, want)
	}
	if !reflect.DeepEqual(tr, MustGet("spmv").Trace(2)) {
		t.Error("Resolve must generate the kernel's trace at the requested scale")
	}

	_, _, err = Resolve(cfg, "nope", 1, "")
	if !errors.Is(err, hmserr.ErrUnknownKernel) || err.Error() != "unknown kernel: nope" {
		t.Errorf("unknown kernel err = %v", err)
	}
	tr = MustGet("spmv").Trace(1)
	_, _, err = Resolve(cfg, "spmv", 1, "val:Q")
	if _, parseErr := placement.Parse(tr, "val:Q"); err == nil || err.Error() != parseErr.Error() {
		t.Errorf("parse err = %v, want placement.Parse's %v", err, parseErr)
	}
	_, _, err = Resolve(cfg, "spmv", 1, "val:C,cols:C,rowD:C")
	illegal, _ := placement.Parse(tr, "val:C,cols:C,rowD:C")
	checkErr := placement.Check(tr, illegal, cfg)
	if !errors.Is(err, hmserr.ErrCapacityExceeded) || err.Error() != checkErr.Error() {
		t.Errorf("illegal sample err = %v, want placement.Check's %v", err, checkErr)
	}
}
