package hmserr

import (
	"errors"
	"testing"
)

func TestWrapPreservesSentinel(t *testing.T) {
	sentinels := []error{
		ErrIllegalPlacement, ErrInvalidTrace, ErrInvalidProfile,
		ErrBudgetExceeded, ErrArchMismatch, ErrUnknownStrategy,
		ErrUnknownKernel,
	}
	for _, s := range sentinels {
		w := Wrap(s, "kernel %s, array %d", "fft", 3)
		if !errors.Is(w, s) {
			t.Errorf("Wrap(%v) lost the sentinel", s)
		}
		if got := w.Error(); got != s.Error()+": kernel fft, array 3" {
			t.Errorf("Wrap message = %q", got)
		}
		// Sentinels are pairwise distinct.
		for _, other := range sentinels {
			if other != s && errors.Is(w, other) {
				t.Errorf("Wrap(%v) matches unrelated sentinel %v", s, other)
			}
		}
	}
}

func TestCapacityExceededChainsOntoIllegalPlacement(t *testing.T) {
	err := Wrap(ErrCapacityExceeded, "shared overflow: %d > %d", 100, 48)
	if !errors.Is(err, ErrCapacityExceeded) {
		t.Error("wrapped error must match ErrCapacityExceeded")
	}
	if !errors.Is(err, ErrIllegalPlacement) {
		t.Error("ErrCapacityExceeded must chain onto ErrIllegalPlacement")
	}
	if errors.Is(ErrIllegalPlacement, ErrCapacityExceeded) {
		t.Error("the broad sentinel must not match the narrow one")
	}
}
