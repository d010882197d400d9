package advisor

import (
	"context"
	"runtime"
	"sort"
	"testing"
	"time"

	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// benchSetup profiles a kernel's sample placement once and returns everything
// a ranking benchmark needs.
func benchSetup(tb testing.TB, kernel string) (*Advisor, *trace.Trace, *placement.Placement) {
	tb.Helper()
	advOnce.Do(func() { adv, advErr = New(gpu.MustLookup("k80")) })
	if advErr != nil {
		tb.Fatal(advErr)
	}
	k := kernels.MustGet(kernel)
	tr := k.Trace(1)
	sample, err := k.SamplePlacement(tr)
	if err != nil {
		tb.Fatal(err)
	}
	return adv, tr, sample
}

// BenchmarkRankParallel measures the ranking engine's scaling curve: the
// sample is profiled once, then each iteration ranks the full spmv space
// (the largest bundled space, 288 candidates) at the given worker count.
func BenchmarkRankParallel(b *testing.B) {
	a, tr, sample := benchSetup(b, "spmv")
	pr, err := a.PredictorContext(context.Background(), tr, sample)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Search(context.Background(), a.Cfg, tr, pr,
					RankOptions{TopK: 10, Parallelism: workers}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// median sorts samples in place and returns the middle one.
func median(samples []time.Duration) time.Duration {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[(len(samples)-1)/2]
}

// TestRankParallelSpeedup times the cold rank path — profile the sample,
// predict and rank the whole legal space — sequentially versus with
// workers=NumCPU, over 5 rounds on fft and spmv. The ≥2.5x median bound on
// spmv only holds where there are cores to scale onto, so it is asserted when
// NumCPU >= 4; on smaller machines the parallel path must instead cost no
// more than 2x sequential on either kernel (the engine must degrade
// gracefully, not collapse, without cores).
func TestRankParallelSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock bound: the race detector distorts timings")
	}
	a := testAdvisor(t)
	ctx := context.Background()
	workers := runtime.NumCPU()
	for _, name := range []string{"fft", "spmv"} {
		k := kernels.MustGet(name)
		tr := k.Trace(1)
		sample, err := k.SamplePlacement(tr)
		if err != nil {
			t.Fatal(err)
		}
		timeRank := func(parallelism int) time.Duration {
			start := time.Now()
			if _, err := a.RankPlacements(ctx, tr, sample, RankOptions{TopK: 10, Parallelism: parallelism}); err != nil {
				t.Fatal(err)
			}
			return time.Since(start)
		}
		const rounds = 5
		seq := make([]time.Duration, 0, rounds)
		par := make([]time.Duration, 0, rounds)
		for i := 0; i < rounds; i++ {
			seq = append(seq, timeRank(1))
			par = append(par, timeRank(workers))
		}
		seqP50, parP50 := median(seq), median(par)
		speedup := float64(seqP50) / float64(parP50)
		t.Logf("%s: sequential p50 %v, parallel p50 %v on %d CPUs — %.2fx", name, seqP50, parP50, workers, speedup)
		if workers >= 4 {
			if name == "spmv" && speedup < 2.5 {
				t.Errorf("%s: parallel cold rank only %.2fx faster (want >= 2.5x on %d CPUs)", name, speedup, workers)
			}
		} else if speedup < 0.5 {
			t.Errorf("%s: parallel cold rank %.2fx sequential — worse than 2x overhead on %d CPUs", name, speedup, workers)
		}
	}
}

// TestPredictAllocs pins the allocation-lean evaluation loop: one spmv
// prediction allocates at most 1000 objects (74895 before the loop was made
// allocation-lean).
func TestPredictAllocs(t *testing.T) {
	a, tr, sample := benchSetup(t, "spmv")
	pr, err := a.PredictorContext(context.Background(), tr, sample)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := pr.Predict(sample); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("predict allocates %.0f objects per op — the allocation-lean loop regressed", allocs)
	}
}

// TestSearchWallClock bounds the search cost on the largest bundled K80 space
// (spmv, 288 legal placements), from one shared profiled sample so the
// timing is search-only: over 10 rounds at workers=NumCPU, the median wall
// time must stay ≤50ms for greedy and beam-4 and ≤500ms for exhaustive.
func TestSearchWallClock(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock bound: the race detector distorts timings")
	}
	a, tr, sample := benchSetup(t, "spmv")
	ctx := context.Background()
	pr, err := a.PredictorContext(ctx, tr, sample)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []struct {
		strat Strategy
		limit time.Duration
	}{
		{Exhaustive(), 500 * time.Millisecond},
		{Greedy(), 50 * time.Millisecond},
		{Beam(4), 50 * time.Millisecond},
	}
	for _, b := range bounds {
		const rounds = 10
		wall := make([]time.Duration, 0, rounds)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			if _, err := Search(ctx, a.Cfg, tr, pr,
				RankOptions{TopK: 10, Parallelism: runtime.NumCPU(), Strategy: b.strat}, nil); err != nil {
				t.Fatalf("%s: %v", b.strat.Spec(), err)
			}
			wall = append(wall, time.Since(start))
		}
		p50 := median(wall)
		t.Logf("%s: p50 %v", b.strat.Spec(), p50)
		if p50 > b.limit {
			t.Errorf("%s p50 wall %v — want ≤%v end-to-end", b.strat.Spec(), p50, b.limit)
		}
	}
}
