// Package train fits the Eq 11 computation/memory overlap coefficients on
// the Table IV training placements. A Session memoizes kernel traces and
// ground-truth measurements per architecture; the advisor trains through a
// fresh one at startup, and the figure harness (internal/experiments) embeds
// one so its figures and training share a single measurement memo.
package train

import (
	"fmt"
	"runtime"
	"sync"

	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
	"gpuhms/internal/sim"
	"gpuhms/internal/trace"
)

// Session carries the architecture, the ground-truth simulator, and a
// memoization layer so each (kernel, placement) pair is measured once per
// session. Measurement is safe for concurrent use; Prewarm fans simulator
// runs out over the CPUs.
type Session struct {
	Cfg   *gpu.Config
	Scale int

	sim      *sim.Simulator
	mu       sync.Mutex
	traces   map[string]*trace.Trace
	measures map[string]*sim.Measurement
}

// New builds a session at the given workload scale (1 = the scale used
// throughout the paper reproduction).
func New(cfg *gpu.Config, scale int) *Session {
	return &Session{
		Cfg:      cfg,
		Scale:    scale,
		sim:      sim.New(cfg),
		traces:   make(map[string]*trace.Trace),
		measures: make(map[string]*sim.Measurement),
	}
}

// Trace returns the (memoized) trace of a kernel.
func (s *Session) Trace(kernel string) *trace.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.traces[kernel]
	if !ok {
		t = kernels.MustGet(kernel).Trace(s.Scale)
		s.traces[kernel] = t
	}
	return t
}

// Measure returns the (memoized) ground-truth measurement of a placement.
func (s *Session) Measure(kernel string, sample, target *placement.Placement) (*sim.Measurement, error) {
	key := kernel + "|" + target.String()
	s.mu.Lock()
	if m, ok := s.measures[key]; ok {
		s.mu.Unlock()
		return m, nil
	}
	s.mu.Unlock()
	m, err := s.sim.Run(s.Trace(kernel), sample, target)
	if err != nil {
		return nil, fmt.Errorf("measure %s %s: %w", kernel, target, err)
	}
	s.mu.Lock()
	s.measures[key] = m // simulation is deterministic: a racing duplicate is identical
	s.mu.Unlock()
	return m, nil
}

// Prewarm measures the cases' placements (and their samples) concurrently,
// one worker per CPU, so subsequent Measure calls hit the memo. Simulation
// is deterministic, so parallel warming cannot change any result.
func (s *Session) Prewarm(cases []Case) error {
	jobs := make(chan Case)
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cs := range jobs {
				_, err := s.Measure(cs.Kernel, cs.Sample, cs.Sample)
				if err == nil {
					_, err = s.Measure(cs.Kernel, cs.Sample, cs.Target)
				}
				if err != nil {
					once.Do(func() { first = err })
				}
			}
		}()
	}
	for _, cs := range cases {
		jobs <- cs
	}
	close(jobs)
	wg.Wait()
	return first
}

// Tests is one kernel's Table IV data placement tests on the session's
// architecture.
type Tests struct {
	Trace      *trace.Trace
	Sample     *placement.Placement
	Placements []*placement.Placement // the sample, then the targets that fit
	Skipped    []*placement.Placement // the targets placement.Check rejects
}

// Tests enumerates a kernel's placement tests. The tests were written for
// the K80, so a target that does not fit a smaller architecture — a 64 KiB
// constant array on a 32 KiB constant segment, say — is skipped and
// reported in Skipped rather than failing its measurement.
func (s *Session) Tests(kernel string) (*Tests, error) {
	spec := kernels.MustGet(kernel)
	t := s.Trace(kernel)
	sample, err := spec.SamplePlacement(t)
	if err != nil {
		return nil, err
	}
	targets, err := spec.Targets(t)
	if err != nil {
		return nil, err
	}
	out := &Tests{Trace: t, Sample: sample, Placements: []*placement.Placement{sample}}
	for _, pl := range targets {
		if placement.Check(t, pl, s.Cfg) != nil {
			out.Skipped = append(out.Skipped, pl)
		} else {
			out.Placements = append(out.Placements, pl)
		}
	}
	return out, nil
}

// Case is one data placement test of Table IV.
type Case struct {
	Kernel   string
	Label    string // the paper's bar label, e.g. "NN_C", "SCAN_2"
	Trace    *trace.Trace
	Sample   *placement.Placement
	Target   *placement.Placement
	IsSample bool
}

// shortName maps kernel registry names to the label prefixes used in the
// paper's figures.
var shortName = map[string]string{
	"neuralnet": "NN",
	"reduction": "Reduction",
	"scan":      "SCAN",
	"stencil2d": "stencil",
	"s3d":       "S3D",
}

func label(kernel string, sample, target *placement.Placement, idx int) string {
	short, ok := shortName[kernel]
	if !ok {
		short = kernel
	}
	// Single-array moves get the moved array's destination space in the
	// label (the paper's NN_C / NN_S style); multi-moves get an index.
	var moved []int
	for i := range target.Spaces {
		if target.Spaces[i] != sample.Spaces[i] {
			moved = append(moved, i)
		}
	}
	if len(moved) == 1 {
		return fmt.Sprintf("%s_%s", short, target.Spaces[moved[0]])
	}
	return fmt.Sprintf("%s_%d", short, idx+1)
}

// Cases enumerates the placement tests of the named kernels that fit the
// architecture (see Tests), optionally including each kernel's sample
// placement as a case.
func (s *Session) Cases(names []string, includeSamples bool) ([]Case, error) {
	var out []Case
	for _, name := range names {
		k, err := s.Tests(name)
		if err != nil {
			return nil, err
		}
		for i, pl := range k.Placements {
			cs := Case{Kernel: name, Label: name + "_sample", Trace: k.Trace,
				Sample: k.Sample, Target: pl, IsSample: i == 0}
			if i > 0 {
				cs.Label = label(name, k.Sample, pl, i-1)
			} else if !includeSamples {
				continue
			}
			out = append(out, cs)
		}
	}
	return out, nil
}

// Overlap fits the Eq 11 coefficients of a model configured by opts on the
// training kernels' placements (Table IV bottom): each target is predicted
// with zero overlap from its kernel's profiled sample, and the overlap ratio
// is regressed on the measured times.
func (s *Session) Overlap(opts core.Options) ([]float64, error) {
	untrained := core.NewModel(s.Cfg, opts) // zero-overlap predictions
	var samples []core.OverlapSample
	cases, err := s.Cases(kernels.TrainingNames(), true)
	if err != nil {
		return nil, err
	}
	if err := s.Prewarm(cases); err != nil {
		return nil, err
	}
	var pr *core.Predictor
	for _, cs := range cases {
		if cs.IsSample { // each kernel's cases open with its sample
			prof, err := s.Measure(cs.Kernel, cs.Sample, cs.Sample)
			if err != nil {
				return nil, err
			}
			pr, err = core.NewPredictor(untrained, cs.Trace, cs.Sample,
				core.SampleProfile{TimeNS: prof.TimeNS, Events: prof.Events})
			if err != nil {
				return nil, err
			}
		}
		pred, err := pr.Predict(cs.Target)
		if err != nil {
			return nil, err
		}
		meas, err := s.Measure(cs.Kernel, cs.Sample, cs.Target)
		if err != nil {
			return nil, err
		}
		obs := untrained.OverlapObservation(pred, meas.TimeNS)
		obs.Kernel, obs.Placement = cs.Kernel, cs.Target.Format(cs.Trace)
		samples = append(samples, obs)
	}
	return core.FitOverlap(samples)
}
