package service

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(4, 8, nil)
	defer p.Close()
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		if err := p.Submit(func() { done.Add(1); wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if done.Load() != 8 {
		t.Fatalf("%d jobs ran, want 8", done.Load())
	}
}

func TestPoolQueueFull(t *testing.T) {
	p := NewPool(1, 1, nil)
	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the worker...
	if err := p.Submit(func() { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started
	// ...and the queue slot.
	if err := p.Submit(func() {}); err != nil {
		t.Fatal(err)
	}
	// The next job is shed.
	if err := p.Submit(func() {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	close(block)
	p.Close()
}

// TestPoolCloseDrains verifies Close waits for queued jobs to finish.
func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(1, 4, nil)
	var done atomic.Int64
	for i := 0; i < 4; i++ {
		if err := p.Submit(func() { done.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if done.Load() != 4 {
		t.Fatalf("Close returned with %d of 4 jobs done", done.Load())
	}
	if err := p.Submit(func() {}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-Close Submit err = %v, want ErrShuttingDown", err)
	}
}

// fakeClock is a manually advanced time source for deterministic shedding
// tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// seedP50 loads the pool's service-time window with a known median.
func seedP50(p *Pool, d time.Duration) {
	for i := 0; i < 8; i++ {
		p.observeService(d)
	}
}

// TestPoolObservedP50 pins the estimator: the median of the recorded
// window, 0 before any job completes.
func TestPoolObservedP50(t *testing.T) {
	p := NewPool(1, 1, nil)
	defer p.Close()
	if got := p.ObservedP50(); got != 0 {
		t.Fatalf("empty window p50 = %v, want 0", got)
	}
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 100 * time.Millisecond} {
		p.observeService(d)
	}
	if got := p.ObservedP50(); got != 5*time.Millisecond {
		t.Fatalf("p50 = %v, want 5ms", got)
	}
}

// TestPoolShedsAtSubmit verifies deadline-aware shedding at the door: a
// request whose whole budget is below the observed median service time is
// rejected with ErrDeadlineBudget without occupying queue or worker.
func TestPoolShedsAtSubmit(t *testing.T) {
	clk := newFakeClock()
	p := NewPool(1, 4, nil)
	defer p.Close()
	p.now = clk.Now
	seedP50(p, 100*time.Millisecond)

	// 10ms of budget against a 100ms median: doomed, shed at submit.
	err := p.SubmitDeadline(clk.Now().Add(10*time.Millisecond),
		func() { t.Error("doomed job ran") }, func(error) { t.Error("doomed job reached the queue") })
	if !errors.Is(err, ErrDeadlineBudget) {
		t.Fatalf("err = %v, want ErrDeadlineBudget", err)
	}
	// An ample budget is accepted and runs.
	done := make(chan struct{})
	if err := p.SubmitDeadline(clk.Now().Add(time.Hour), func() { close(done) }, func(error) {}); err != nil {
		t.Fatal(err)
	}
	<-done
	// No deadline means no shedding regardless of history.
	ran := make(chan struct{})
	if err := p.SubmitDeadline(time.Time{}, func() { close(ran) }, nil); err != nil {
		t.Fatal(err)
	}
	<-ran
}

// TestPoolShedsAtDequeue verifies the second shed gate: a job that was
// viable at submit but whose budget evaporated while queued is answered
// through its shed callback instead of running.
func TestPoolShedsAtDequeue(t *testing.T) {
	clk := newFakeClock()
	p := NewPool(1, 4, nil)
	defer p.Close()
	p.now = clk.Now
	seedP50(p, 50*time.Millisecond)

	// Occupy the single worker so the next job waits in the queue.
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(func() { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started

	shedErr := make(chan error, 1)
	deadline := clk.Now().Add(200 * time.Millisecond) // viable now...
	if err := p.SubmitDeadline(deadline,
		func() { t.Error("expired job ran") },
		func(err error) { shedErr <- err }); err != nil {
		t.Fatal(err)
	}
	clk.Advance(190 * time.Millisecond) // ...but the queue wait ate the budget
	close(block)
	select {
	case err := <-shedErr:
		if !errors.Is(err, ErrDeadlineBudget) {
			t.Fatalf("shed err = %v, want ErrDeadlineBudget", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued job neither ran nor shed")
	}
}

// TestRetryAfterJitterBounds pins the full-jitter backoff: always >= 1,
// bounded by 1<<k, and the exponent k grows with queue fullness.
func TestRetryAfterJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for depth := 0; depth <= 64; depth += 8 {
		for i := 0; i < 200; i++ {
			got := retryAfterSeconds(depth, 64, rng.Intn)
			k := 4 * depth / 64
			if k > 4 {
				k = 4
			}
			if got < 1 || got > 1<<k {
				t.Fatalf("depth %d: Retry-After %d outside [1,%d]", depth, got, 1<<k)
			}
		}
	}
	// An empty queue keeps the base: no pointless long waits after drain.
	for i := 0; i < 50; i++ {
		if got := retryAfterSeconds(0, 64, rng.Intn); got != 1 {
			t.Fatalf("empty queue Retry-After %d, want 1", got)
		}
	}
	// A full queue must be able to reach beyond the base, or the herd
	// returns in lockstep.
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		seen[retryAfterSeconds(64, 64, rng.Intn)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("full-queue jitter produced only %d distinct values", len(seen))
	}
	// A zero-capacity queue stays sane.
	if got := retryAfterSeconds(0, 0, rng.Intn); got < 1 {
		t.Fatalf("zero-capacity Retry-After %d", got)
	}
}

// TestPoolCloseIdempotent guards the Close/Close and Close/Submit races.
func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2, 2, nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); p.Close() }()
		wg.Add(1)
		go func() { defer wg.Done(); _ = p.Submit(func() {}) }()
	}
	wg.Wait()
}
