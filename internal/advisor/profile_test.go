package advisor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
	"gpuhms/internal/sim"
	"gpuhms/internal/trace"
)

// TestProfileMatchesSimulator is the profiling oracle: for every registry
// kernel on every registered arch, the memoized sample profile a predictor
// is seeded with equals a fresh simulator run of the sample placement —
// TimeNS bit for bit and every event counter. The second request names the
// kernel's sample explicitly, so it must hit the entry the first (omitted
// sample) made. Under -race or -short only k80 runs.
func TestProfileMatchesSimulator(t *testing.T) {
	arches := gpu.Names()
	if raceEnabled || testing.Short() {
		arches = []string{"k80"}
	}
	ctx := context.Background()
	for _, arch := range arches {
		cfg := gpu.MustLookup(arch)
		col := obs.NewCollector()
		a := &Advisor{Cfg: cfg, Model: core.NewModel(cfg, core.FullOptions()), Recorder: col}
		names := kernels.Names()
		for _, name := range names {
			tr, sample, _, err := a.KernelPredictor(ctx, name, 1, "")
			if err != nil {
				t.Fatalf("%s/%s: %v", arch, name, err)
			}
			_, _, pr, err := a.KernelPredictor(ctx, name, 1, sample.Format(tr))
			if err != nil {
				t.Fatalf("%s/%s: %v", arch, name, err)
			}
			want, err := sim.New(cfg).RunContext(ctx, tr, sample, sample)
			if err != nil {
				t.Fatalf("%s/%s: fresh run: %v", arch, name, err)
			}
			got := pr.Profile()
			if math.Float64bits(got.TimeNS) != math.Float64bits(want.TimeNS) || got.Events != want.Events {
				t.Errorf("%s/%s: memoized profile %v / %+v, fresh simulator run %v / %+v",
					arch, name, got.TimeNS, got.Events, want.TimeNS, want.Events)
			}
		}
		snap := col.Snapshot()
		n := int64(len(names))
		if hits, misses := snap.Counter("advisor_profile_memo_hits_total"), snap.Counter("advisor_profile_memo_misses_total"); hits != n || misses != n {
			t.Errorf("%s: memo hits %d, misses %d; want %d each", arch, hits, misses, n)
		}
		if runs := snap.Counter("sim_runs_total"); runs != n {
			t.Errorf("%s: sim_runs_total = %d, want %d (one per memo miss)", arch, runs, n)
		}
	}
}

// TestProfileMemoSingleflight: concurrent requests for one key run one
// simulation, and every caller gets its own predictor.
func TestProfileMemoSingleflight(t *testing.T) {
	cfg := gpu.MustLookup("k80")
	col := obs.NewCollector()
	a := &Advisor{Cfg: cfg, Model: core.NewModel(cfg, core.FullOptions()), Recorder: col}
	const callers = 8
	preds := make([]*core.Predictor, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, pr, err := a.KernelPredictor(context.Background(), "fft", 1, "")
			if err != nil {
				t.Error(err)
				return
			}
			preds[i] = pr
		}(i)
	}
	wg.Wait()
	snap := col.Snapshot()
	if runs := snap.Counter("sim_runs_total"); runs != 1 {
		t.Errorf("sim_runs_total = %d, want 1", runs)
	}
	if hits, misses := snap.Counter("advisor_profile_memo_hits_total"), snap.Counter("advisor_profile_memo_misses_total"); hits != callers-1 || misses != 1 {
		t.Errorf("memo hits %d, misses %d; want %d and 1", hits, misses, callers-1)
	}
	for i := 1; i < callers; i++ {
		if preds[i] == nil || preds[i] == preds[0] {
			t.Fatalf("caller %d: predictor %p shared with caller 0 (%p) or missing", i, preds[i], preds[0])
		}
		if preds[i].Profile() != preds[0].Profile() {
			t.Errorf("caller %d: profile differs from caller 0", i)
		}
	}
}

// TestProfileMemoCancellation: a leader whose context is canceled mid-run
// returns its error, the failed run is not memoized, a caller waiting on it
// profiles afresh, and a waiter whose own context is done stops waiting.
func TestProfileMemoCancellation(t *testing.T) {
	var m profileMemo
	key := profileKey{kernel: "k", scale: 1, sample: "s"}
	want := core.SampleProfile{TimeNS: 42}

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := m.do(ctx, key, func() (core.SampleProfile, error) {
			close(started)
			<-ctx.Done()
			return core.SampleProfile{}, ctx.Err()
		})
		leaderErr <- err
	}()
	<-started

	// A waiter whose context is already done gives up on the in-flight run.
	done, stop := context.WithCancel(context.Background())
	stop()
	if _, ran, err := m.do(done, key, nil); !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("canceled waiter: ran %v, err %v; want context.Canceled", ran, err)
	}

	// A patient waiter either waits on the leader and retries after its
	// failure, or arrives after it: either way it runs its own profile.
	var waiterRuns atomic.Int64
	type result struct {
		prof core.SampleProfile
		ran  bool
		err  error
	}
	waiter := make(chan result, 1)
	go func() {
		prof, ran, err := m.do(context.Background(), key, func() (core.SampleProfile, error) {
			waiterRuns.Add(1)
			return want, nil
		})
		waiter <- result{prof, ran, err}
	}()

	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error %v, want context.Canceled", err)
	}
	r := <-waiter
	if r.err != nil || !r.ran || r.prof != want || waiterRuns.Load() != 1 {
		t.Fatalf("waiter: %+v, %d runs; want its own successful run", r, waiterRuns.Load())
	}
	// The waiter's run is memoized now; nothing runs again.
	prof, ran, err := m.do(context.Background(), key, func() (core.SampleProfile, error) {
		t.Error("memoized key profiled again")
		return core.SampleProfile{}, nil
	})
	if err != nil || ran || prof != want {
		t.Fatalf("after the retry: %v, ran %v, %v", prof, ran, err)
	}
}

// TestProfileMemoNeverStoresErrors: a failed or panicking run leaves no
// entry behind, so the next caller profiles.
func TestProfileMemoNeverStoresErrors(t *testing.T) {
	var m profileMemo
	key := profileKey{kernel: "k", scale: 1, sample: "s"}
	boom := errors.New("boom")
	if _, _, err := m.do(context.Background(), key, func() (core.SampleProfile, error) {
		return core.SampleProfile{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err %v, want boom", err)
	}
	func() {
		defer func() { _ = recover() }()
		m.do(context.Background(), key, func() (core.SampleProfile, error) { panic("bug") })
	}()
	if len(m.calls) != 0 {
		t.Fatalf("failed runs left %d entries", len(m.calls))
	}
	if _, ran, err := m.do(context.Background(), key, func() (core.SampleProfile, error) {
		return core.SampleProfile{TimeNS: 1}, nil
	}); err != nil || !ran {
		t.Fatalf("after failures: ran %v, err %v; want a fresh run", ran, err)
	}
}

// TestProfileMemoCap: filling the memo past its cap never holds more than
// profileMemoCap entries, and the oldest keys are the ones evicted.
func TestProfileMemoCap(t *testing.T) {
	var m profileMemo
	run := func() (core.SampleProfile, error) { return core.SampleProfile{TimeNS: 1}, nil }
	const n = 2*profileMemoCap + 5
	for i := 0; i < n; i++ {
		if _, _, err := m.do(context.Background(), profileKey{kernel: "k", scale: i}, run); err != nil {
			t.Fatal(err)
		}
		if len(m.calls) > profileMemoCap {
			t.Fatalf("after %d keys the memo holds %d entries, cap %d", i+1, len(m.calls), profileMemoCap)
		}
	}
	if len(m.calls) != profileMemoCap {
		t.Fatalf("memo holds %d entries, want %d", len(m.calls), profileMemoCap)
	}
	for i := n - profileMemoCap; i < n; i++ {
		if _, ok := m.calls[profileKey{kernel: "k", scale: i}]; !ok {
			t.Fatalf("key %d of the last %d inserted was evicted", i, profileMemoCap)
		}
	}
}

// countingMeasurer counts RunContext calls and delegates to a simulator.
type countingMeasurer struct {
	cfg  *gpu.Config
	runs atomic.Int64
}

func (m *countingMeasurer) Run(t *trace.Trace, sample, target *placement.Placement) (*sim.Measurement, error) {
	return m.RunContext(context.Background(), t, sample, target)
}

func (m *countingMeasurer) RunContext(ctx context.Context, t *trace.Trace, sample, target *placement.Placement) (*sim.Measurement, error) {
	m.runs.Add(1)
	return sim.New(m.cfg).RunContext(ctx, t, sample, target)
}

// TestProfileMemoSkipsSubstitutedMeasurer: only the default simulator is
// memoized; a substituted Measurer is consulted on every request.
func TestProfileMemoSkipsSubstitutedMeasurer(t *testing.T) {
	cfg := gpu.MustLookup("k80")
	m := &countingMeasurer{cfg: cfg}
	a := &Advisor{Cfg: cfg, Model: core.NewModel(cfg, core.FullOptions()), Measurer: m}
	const requests = 3
	for i := 0; i < requests; i++ {
		if _, _, _, err := a.KernelPredictor(context.Background(), "fft", 1, ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.runs.Load(); got != requests {
		t.Errorf("measurer ran %d times for %d requests", got, requests)
	}
	if len(a.profiles.calls) != 0 {
		t.Errorf("memo holds %d entries with a substituted measurer", len(a.profiles.calls))
	}
}

// BenchmarkKernelPredictor times the front door for spmv on k80: cold runs
// the simulator on every call (a fresh advisor), hit serves the profile from
// the memo, so the two differ by one profiling run.
func BenchmarkKernelPredictor(b *testing.B) {
	cfg := gpu.MustLookup("k80")
	model := core.NewModel(cfg, core.FullOptions())
	warm := &Advisor{Cfg: cfg, Model: model}
	if _, _, _, err := warm.KernelPredictor(context.Background(), "spmv", 1, ""); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"cold", "hit"} {
		b.Run(fmt.Sprintf("k80/spmv/%s", mode), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := warm
				if mode == "cold" {
					a = &Advisor{Cfg: cfg, Model: model}
				}
				if _, _, _, err := a.KernelPredictor(context.Background(), "spmv", 1, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
