// Package kernels provides the workload generators of the reproduction:
// placement-neutral traces whose array structure and per-warp memory access
// patterns follow the SHOC and CUDA-SDK kernels evaluated in the paper
// (Table IV). Each kernel declares its sample data placement and the data
// placement tests run against it.
//
// The generators replace the paper's SASSI-instrumented CUDA binaries: they
// emit the same information — per-warp instruction streams with per-lane
// element indices — for faithful re-creations of the kernels' access
// patterns (coalesced streams, strided and gather accesses, broadcast
// constant reads, shared-memory butterflies, …).
package kernels

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// Spec describes one benchmark kernel.
type Spec struct {
	// Name is the registry key ("matrixMul", "spmv", …).
	Name string
	// Suite is the benchmark's origin in the paper ("SHOC", "SDK", "micro").
	Suite string
	// KernelName is the GPU kernel function the paper instruments
	// ("vector_kernel", "compute_lj_force", …).
	KernelName string
	// Description summarizes the access pattern.
	Description string

	// Generate produces the trace at a given scale (1 = test scale; larger
	// values grow the problem size). Generators are deterministic.
	Generate func(scale int) *trace.Trace

	// Sample is the kernel's existing data placement in Table IV notation
	// ("d_position:T"); unlisted arrays are in global memory.
	Sample string

	// PlacementTests are the target data placements evaluated against the
	// sample, each as comma-separated overrides of the sample placement
	// ("weights:C", "A:2T,B:2T"). The sample itself is test 0 and is not
	// listed.
	PlacementTests []string

	// Training marks kernels whose placements train the T_overlap model
	// (Table IV bottom half); the rest form the evaluation set.
	Training bool
}

// Trace generates the kernel's trace at the given scale.
func (s Spec) Trace(scale int) *trace.Trace {
	if scale < 1 {
		scale = 1
	}
	return s.Generate(scale)
}

// SamplePlacement parses the kernel's sample placement for a trace.
func (s Spec) SamplePlacement(t *trace.Trace) (*placement.Placement, error) {
	return placement.Parse(t, s.Sample)
}

// Targets parses every placement test into a full target placement
// (sample placement with the test's overrides applied).
func (s Spec) Targets(t *trace.Trace) ([]*placement.Placement, error) {
	sample, err := s.SamplePlacement(t)
	if err != nil {
		return nil, err
	}
	out := make([]*placement.Placement, 0, len(s.PlacementTests))
	for _, spec := range s.PlacementTests {
		ov, err := placement.Parse(t, spec)
		if err != nil {
			return nil, fmt.Errorf("kernel %s test %q: %w", s.Name, spec, err)
		}
		// Apply only the overrides actually named in the spec: re-parse to
		// know which arrays were mentioned.
		target, err := applyOverrides(t, sample, spec, ov)
		if err != nil {
			return nil, err
		}
		out = append(out, target)
	}
	return out, nil
}

func applyOverrides(t *trace.Trace, sample *placement.Placement, spec string, parsed *placement.Placement) (*placement.Placement, error) {
	target := sample.Clone()
	named, err := namedArrays(t, spec)
	if err != nil {
		return nil, err
	}
	for _, id := range named {
		target.Spaces[id] = parsed.Spaces[id]
	}
	return target, nil
}

func namedArrays(t *trace.Trace, spec string) ([]trace.ArrayID, error) {
	var ids []trace.ArrayID
	for _, part := range strings.Split(spec, ",") {
		name, _, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("kernels: bad placement element %q", part)
		}
		id, found := t.ArrayByName(strings.TrimSpace(name))
		if !found {
			return nil, fmt.Errorf("kernels: unknown array %q in %q", name, spec)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

var registry = map[string]Spec{}

// Register validates and adds a workload to the registry. It rejects
// duplicates, unnamed specs, and specs without a generator, so external
// callers extending the corpus get errors rather than panics or silently
// broken lookups.
func Register(s Spec) error {
	if s.Name == "" {
		return fmt.Errorf("kernels: spec has no name")
	}
	if s.Generate == nil {
		return fmt.Errorf("kernels: kernel %s has no generator", s.Name)
	}
	if _, dup := registry[s.Name]; dup {
		return fmt.Errorf("kernels: duplicate kernel %s", s.Name)
	}
	registry[s.Name] = s
	return nil
}

// register is Register for the statically-correct built-in corpus
// (init-time registration, where a failure is a programming bug).
func register(s Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Get looks up a kernel by name.
func Get(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Resolve turns a kernel request — registry name, scale, sample spec — into
// the generated trace and its sample placement, checked legal on cfg. An
// empty sampleSpec selects the kernel's own sample. An unknown name wraps
// hmserr.ErrUnknownKernel; parse and legality errors are returned as
// placement.Parse and placement.Check report them.
func Resolve(cfg *gpu.Config, name string, scale int, sampleSpec string) (*trace.Trace, *placement.Placement, error) {
	s, ok := registry[name]
	if !ok {
		return nil, nil, hmserr.Wrap(hmserr.ErrUnknownKernel, "%s", name)
	}
	if sampleSpec == "" {
		sampleSpec = s.Sample
	}
	tr := s.Trace(scale)
	sample, err := placement.Parse(tr, sampleSpec)
	if err != nil {
		return nil, nil, err
	}
	if err := placement.Check(tr, sample, cfg); err != nil {
		return nil, nil, err
	}
	return tr, sample, nil
}

// MustGet looks up a kernel and panics when absent (for experiment drivers
// whose kernel lists are static).
func MustGet(name string) Spec {
	s, ok := registry[name]
	if !ok {
		panic("kernels: unknown kernel " + name)
	}
	return s
}

// Names returns all registered kernel names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TrainingNames returns the kernels whose placements train T_overlap.
func TrainingNames() []string {
	var out []string
	for _, n := range Names() {
		if registry[n].Training {
			out = append(out, n)
		}
	}
	return out
}

// EvalNames returns the evaluation kernels (Table IV top half).
func EvalNames() []string {
	var out []string
	for _, n := range Names() {
		if !registry[n].Training {
			out = append(out, n)
		}
	}
	return out
}

// rng returns a deterministic per-kernel random source.
func rng(kernel string, scale int) *rand.Rand {
	var seed int64 = 0x5eed
	for _, c := range kernel {
		seed = seed*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed + int64(scale)*7919))
}
