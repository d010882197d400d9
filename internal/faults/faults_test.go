package faults_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"gpuhms"
	"gpuhms/internal/faults"
	"gpuhms/internal/sim"
)

// testKernel is a small bundled workload with several arrays, so the legal
// placement space is interesting but each simulator run stays cheap.
const testKernel = "stencil2d"

func loadKernel(t *testing.T) (*gpuhms.Trace, *gpuhms.Placement) {
	t.Helper()
	spec, err := gpuhms.Kernel(testKernel)
	if err != nil {
		t.Fatalf("Kernel(%q): %v", testKernel, err)
	}
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatalf("SamplePlacement: %v", err)
	}
	return tr, sample
}

// advisorWith builds an untrained advisor (zero overlap coefficients) whose
// profiling goes through the given measurer. Training is irrelevant to the
// robustness properties under test and would dominate the test's runtime.
func advisorWith(m gpuhms.Measurer) *gpuhms.Advisor {
	cfg := gpuhms.MustLookupArch("k80")
	return &gpuhms.Advisor{
		Cfg:      cfg,
		Model:    gpuhms.NewModel(cfg, gpuhms.FullModelOptions()),
		Measurer: m,
	}
}

func TestInjectorDeterministic(t *testing.T) {
	tr, sample := loadKernel(t)
	cfg := gpuhms.MustLookupArch("k80")
	base := sim.New(cfg)
	opts := faults.Options{Seed: 42, LatencyNoise: 0.2, CounterNoise: 0.2}

	targets := gpuhms.EnumeratePlacements(tr, cfg)
	if len(targets) < 2 {
		t.Fatalf("want >= 2 legal placements, got %d", len(targets))
	}
	a, b := targets[0], targets[1]

	inj1 := faults.New(base, opts)
	m1a, err := inj1.Run(tr, sample, a)
	if err != nil {
		t.Fatal(err)
	}
	m1b, err := inj1.Run(tr, sample, b)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh injector measuring in the opposite order must reproduce the
	// exact same degraded measurements: the stream is keyed by
	// (kernel, placement), not by call order.
	inj2 := faults.New(sim.New(cfg), opts)
	m2b, err := inj2.Run(tr, sample, b)
	if err != nil {
		t.Fatal(err)
	}
	m2a, err := inj2.Run(tr, sample, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1a, m2a) || !reflect.DeepEqual(m1b, m2b) {
		t.Error("same seed, different call order: measurements differ")
	}

	// A different seed must actually perturb differently.
	inj3 := faults.New(sim.New(cfg), faults.Options{Seed: 43, LatencyNoise: 0.2, CounterNoise: 0.2})
	m3a, err := inj3.Run(tr, sample, a)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(m3a, m1a) {
		t.Error("different seeds produced identical degraded measurements")
	}
}

func TestInjectorZeroOptionsIsTransparent(t *testing.T) {
	tr, sample := loadKernel(t)
	cfg := gpuhms.MustLookupArch("k80")
	clean, err := sim.New(cfg).Run(tr, sample, sample)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := faults.New(sim.New(cfg), faults.Options{Seed: 7}).Run(tr, sample, sample)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, faulty) {
		t.Error("injector with no faults enabled changed the measurement")
	}
}

func TestInjectorPropagatesCancellation(t *testing.T) {
	tr, sample := loadKernel(t)
	inj := faults.New(sim.New(gpuhms.MustLookupArch("k80")), faults.Options{Seed: 1, LatencyNoise: 0.5})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inj.RunContext(ctx, tr, sample, sample); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context: got %v, want context.Canceled", err)
	}
}

// TestCorruptProfileTypedError is the headline degradation property: a
// profiler emitting NaN/Inf/negative times or inconsistent counters makes
// the advisor fail with ErrInvalidProfile — never a panic, never a ranking
// built on garbage.
func TestCorruptProfileTypedError(t *testing.T) {
	tr, sample := loadKernel(t)
	cases := []struct {
		name string
		opts faults.Options
	}{
		{"nan time", faults.Options{Seed: 1, NaNTime: true}},
		{"inf time", faults.Options{Seed: 1, InfTime: true}},
		{"negative time", faults.Options{Seed: 1, NegativeTime: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			adv := advisorWith(faults.New(sim.New(gpuhms.MustLookupArch("k80")), tc.opts))
			if _, err := adv.Predictor(tr, sample); !errors.Is(err, gpuhms.ErrInvalidProfile) {
				t.Errorf("Predictor: got %v, want ErrInvalidProfile", err)
			}
			if _, err := adv.RankPlacements(context.Background(), tr, sample, gpuhms.RankOptions{}); !errors.Is(err, gpuhms.ErrInvalidProfile) {
				t.Errorf("RankPlacements: got %v, want ErrInvalidProfile", err)
			}
		})
	}
}

// TestDegradedCountersNeverGarbage runs the advisor under every counter
// fault and accepts exactly two outcomes: a typed error, or a complete
// ranking of finite, positive, ascending predictions. Anything else —
// a panic, a NaN prediction, an unsorted ranking — fails.
func TestDegradedCountersNeverGarbage(t *testing.T) {
	tr, sample := loadKernel(t)
	cases := []struct {
		name string
		opts faults.Options
	}{
		{"saturated counters", faults.Options{Seed: 3, Saturate: true}},
		{"dropped counters", faults.Options{Seed: 3, DropRate: 0.5}},
		{"all counters dropped", faults.Options{Seed: 3, DropRate: 1}},
		{"heavy counter noise", faults.Options{Seed: 3, CounterNoise: 0.9}},
		{"heavy latency noise", faults.Options{Seed: 3, LatencyNoise: 0.9}},
		{"everything at once", faults.Options{Seed: 3, LatencyNoise: 0.9, CounterNoise: 0.9, DropRate: 0.25}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			adv := advisorWith(faults.New(sim.New(gpuhms.MustLookupArch("k80")), tc.opts))
			res, err := adv.RankPlacements(context.Background(), tr, sample, gpuhms.RankOptions{})
			if err != nil {
				if !errors.Is(err, gpuhms.ErrInvalidProfile) {
					t.Fatalf("degraded advisor failed with an untyped error: %v", err)
				}
				return // typed rejection is a valid outcome
			}
			ranked := res.Ranked
			if len(ranked) == 0 {
				t.Fatal("nil error but empty ranking")
			}
			for i, r := range ranked {
				ns := r.PredictedNS
				if math.IsNaN(ns) || math.IsInf(ns, 0) || ns <= 0 {
					t.Fatalf("ranked[%d] has insane prediction %g ns", i, ns)
				}
				if i > 0 && ns < ranked[i-1].PredictedNS {
					t.Fatalf("ranking not ascending at %d: %g after %g", i, ns, ranked[i-1].PredictedNS)
				}
			}
		})
	}
}

// TestNoiseSweepDegradesGracefully checks the quantitative half of the
// story: as seeded counter noise grows, the noise-induced prediction error —
// how far the advisor's predictions drift from what a clean profile yields —
// grows roughly monotonically rather than jumping to garbage. The sweep is
// fully deterministic (fixed seed), and uses spmv: the profile feeds
// predictions through the Eq 3 measured-replay term, and spmv's irregular
// accesses give the sample a large replay count for the noise to act on.
func TestNoiseSweepDegradesGracefully(t *testing.T) {
	cfg := gpuhms.MustLookupArch("k80")
	spec, err := gpuhms.Kernel("spmv")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Trace(1)
	sample, err := spec.SamplePlacement(tr)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := spec.Targets(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("spmv has no placement tests")
	}

	// Reference: predictions seeded by the clean (uninjected) profile.
	clean := make([]float64, len(targets))
	cleanPr, err := advisorWith(sim.New(cfg)).Predictor(tr, sample)
	if err != nil {
		t.Fatal(err)
	}
	for i, target := range targets {
		p, err := cleanPr.Predict(target)
		if err != nil {
			t.Fatal(err)
		}
		clean[i] = p.TimeNS
	}

	levels := []float64{0, 0.1, 0.3, 0.6}
	drift := make([]float64, len(levels))
	for li, noise := range levels {
		adv := advisorWith(faults.New(sim.New(cfg), faults.Options{
			Seed:               12345,
			CounterNoise:       noise,
			PreserveInvariants: true,
		}))
		pr, err := adv.Predictor(tr, sample)
		if err != nil {
			t.Fatalf("noise %.2f: %v", noise, err)
		}
		var sum float64
		for i, target := range targets {
			p, err := pr.Predict(target)
			if err != nil {
				t.Fatalf("noise %.2f: predicting target %d: %v", noise, i, err)
			}
			if math.IsNaN(p.TimeNS) || math.IsInf(p.TimeNS, 0) || p.TimeNS <= 0 {
				t.Fatalf("noise %.2f: insane prediction %g ns", noise, p.TimeNS)
			}
			sum += math.Abs(p.TimeNS-clean[i]) / clean[i]
		}
		drift[li] = sum / float64(len(targets))
		t.Logf("noise %.2f: mean relative prediction drift %.5f", noise, drift[li])
	}

	if drift[0] != 0 {
		t.Errorf("zero noise drifted predictions by %.5f", drift[0])
	}
	if drift[len(drift)-1] <= 0 {
		t.Error("heaviest noise left predictions unchanged — the harness is not injecting")
	}
	// "Monotonically-ish": each step may not fall more than 20% below the
	// previous level (uniform noise scales linearly with the level, so real
	// regressions, not jitter, are what this catches).
	for i := 2; i < len(drift); i++ {
		if drift[i] < 0.8*drift[i-1] {
			t.Errorf("drift fell from %.5f (noise %.2f) to %.5f (noise %.2f)",
				drift[i-1], levels[i-1], drift[i], levels[i])
		}
	}
}
