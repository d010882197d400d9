package core

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// fuzzTarget is one (arch, kernel) pair's profiled predictor and the inputs
// a fresh predictor is built from.
type fuzzTarget struct {
	model  *Model
	trace  *trace.Trace
	sample *placement.Placement
	prof   SampleProfile
	pr     *Predictor
}

// FuzzPredictPaths asserts that every evaluation path agrees on any
// (arch, kernel, placement string): when placement.Parse and Check accept
// the placement, Predict, PredictFull and a fresh predictor's Predict return
// reflect.DeepEqual predictions with a finite time; when Check rejects it,
// all three return an error wrapping hmserr.ErrIllegalPlacement. Each
// (arch, kernel) predictor is profiled once and shared across inputs, so
// the shared one carries the contribution cache state of earlier inputs.
func FuzzPredictPaths(f *testing.F) {
	arches, names := gpu.Names(), kernels.Names()
	seed := func(arch, kernel, spec string) {
		f.Add(uint8(slices.Index(arches, arch)), uint8(slices.Index(names, kernel)), spec)
	}
	seed("k80", "vecadd", "a:T,b:T,v:G")
	seed("k80", "vecadd", "v:T")
	seed("k80", "tablelookup", "table:rG")
	seed("fermi", "matrixMul", "A:C,B:T,C:G")
	seed("hbm", "fft", "work:G,smem:S")
	seed("hbm", "histogram", "d_Data:T,s_Hist:C")
	seed("chiplet", "tablelookup", "table:S,in:S,out:S")
	seed("chiplet", "vecadd", "a:rG,b:rT,v:rG")

	targets := map[[2]int]*fuzzTarget{}
	f.Fuzz(func(t *testing.T, archIdx, kernelIdx uint8, spec string) {
		key := [2]int{int(archIdx) % len(arches), int(kernelIdx) % len(names)}
		ft := targets[key]
		if ft == nil {
			cfg := gpu.MustLookup(arches[key[0]])
			kspec := kernels.MustGet(names[key[1]])
			tr := kspec.Trace(1)
			sample, err := kspec.SamplePlacement(tr)
			if err != nil {
				t.Fatal(err)
			}
			if placement.Check(tr, sample, cfg) != nil {
				t.Skipf("%s sample is not legal on %s", names[key[1]], arches[key[0]])
			}
			ft = &fuzzTarget{model: NewModel(cfg, FullOptions()), trace: tr, sample: sample, prof: profile(t, cfg, tr, sample)}
			if ft.pr, err = NewPredictor(ft.model, tr, sample, ft.prof); err != nil {
				t.Fatal(err)
			}
			targets[key] = ft
		}
		target, err := placement.Parse(ft.trace, spec)
		if err != nil {
			return
		}
		fresh, err := NewPredictor(ft.model, ft.trace, ft.sample, ft.prof)
		if err != nil {
			t.Fatal(err)
		}
		pred, errP := ft.pr.Predict(target)
		full, errF := ft.pr.PredictFull(target)
		fp, errN := fresh.Predict(target)
		if checkErr := placement.Check(ft.trace, target, ft.model.Cfg); checkErr != nil {
			for path, err := range map[string]error{"Predict": errP, "PredictFull": errF, "fresh Predict": errN} {
				if !errors.Is(err, hmserr.ErrIllegalPlacement) {
					t.Fatalf("%s of %q (Check: %v) returned %v, want ErrIllegalPlacement", path, spec, checkErr, err)
				}
			}
			return
		}
		if errP != nil || errF != nil || errN != nil {
			t.Fatalf("legal %q: Predict %v, PredictFull %v, fresh Predict %v", spec, errP, errF, errN)
		}
		if math.IsNaN(pred.TimeNS) || math.IsInf(pred.TimeNS, 0) {
			t.Fatalf("legal %q: non-finite TimeNS %v", spec, pred.TimeNS)
		}
		if !reflect.DeepEqual(pred, full) {
			t.Fatalf("legal %q: PredictFull diverges from Predict:\n got: %+v\nwant: %+v", spec, full, pred)
		}
		if !reflect.DeepEqual(pred, fp) {
			t.Fatalf("legal %q: fresh predictor diverges from Predict:\n got: %+v\nwant: %+v", spec, fp, pred)
		}
	})
}
