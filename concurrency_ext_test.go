package gpuhms_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"gpuhms"
)

// TestAdvisorConcurrentUse hammers one shared Advisor from many goroutines —
// the advisory service's operating mode — mixing ranking searches and
// predictor construction on several kernels at once. Run under -race this is
// the concurrency audit of the "safe for concurrent use once constructed"
// contract: the trained Model must be read-only and every search must build
// its own simulator, predictor, and binding.
func TestAdvisorConcurrentUse(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a full advisor")
	}
	adv, err := gpuhms.NewAdvisorForArch("k80")
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	kernels := []string{"fft", "vecadd", "triad", "md5hash"}
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*2)

	for g := 0; g < goroutines; g++ {
		name := kernels[g%len(kernels)]
		spec, err := gpuhms.Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := spec.Trace(1)
		sample, err := spec.SamplePlacement(tr)
		if err != nil {
			t.Fatal(err)
		}

		// Half the goroutines run budget-bounded ranking searches...
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := adv.RankPlacements(context.Background(), tr, sample,
				gpuhms.RankOptions{MaxCandidates: 3, TopK: 2})
			if err != nil && !errors.Is(err, gpuhms.ErrBudgetExceeded) {
				errCh <- err
				return
			}
			if res == nil || len(res.Ranked) == 0 {
				errCh <- errors.New("empty ranking from concurrent RankPlacements")
			}
		}()

		// ...the other half build predictors and predict concurrently.
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, err := adv.PredictorContext(context.Background(), tr, sample)
			if err != nil {
				errCh <- err
				return
			}
			p, err := pr.Predict(sample)
			if err != nil {
				errCh <- err
				return
			}
			if p.TimeNS <= 0 {
				errCh <- errors.New("non-positive concurrent prediction")
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
