// Package hmserr defines the structured error taxonomy of the library.
//
// Every error crossing the public gpuhms API wraps exactly one of the
// sentinels below, so callers branch with errors.Is instead of string
// matching, and the facade can guarantee that internal panics never escape:
// anything that is not one of these classes is a bug, not an input problem.
//
//   - ErrIllegalPlacement: a placement violates legality rules (capacity,
//     read-only spaces, 2D-texture shape, out-of-range array IDs) or a
//     placement spec fails to parse.
//   - ErrCapacityExceeded: the capacity sub-class of ErrIllegalPlacement — a
//     placement's aggregate demand overflows a memory space's byte budget
//     (shared per block, constant total, bounded DRAM). It wraps
//     ErrIllegalPlacement, so errors.Is(err, ErrIllegalPlacement) still
//     holds; callers that care specifically about capacity (the advisory
//     service maps it to 422, the fleet solvers to infeasibility) test the
//     narrower sentinel first.
//   - ErrInvalidTrace: a kernel trace is internally inconsistent (lane
//     counts, index ranges, stores to read-only arrays, duplicate array
//     names, non-positive or overflowing lengths).
//   - ErrInvalidProfile: a sample profile carries non-finite, negative, or
//     inconsistent counters and cannot seed predictions.
//   - ErrBudgetExceeded: a search stopped because its evaluation or
//     placement budget ran out; partial results accompany this error and
//     are never silently returned as complete.
//   - ErrArchMismatch: a persisted model or profile targets a different
//     architecture than the one it is being used with.
//   - ErrUnknownStrategy: a search-strategy spec does not name a known
//     strategy (exhaustive, greedy, beam-W); a caller input problem, never
//     an internal failure.
//   - ErrUnknownKernel: a request names a kernel the workload registry does
//     not have (kernels.Resolve, the advisory service, fleet tenants, the
//     facade's Kernel).
package hmserr

import (
	"errors"
	"fmt"
)

// Sentinel errors of the gpuhms error taxonomy. They are compared with
// errors.Is; concrete errors wrap them via Wrap.
var (
	ErrIllegalPlacement = errors.New("illegal placement")
	ErrInvalidTrace     = errors.New("invalid trace")
	ErrInvalidProfile   = errors.New("invalid sample profile")
	ErrBudgetExceeded   = errors.New("search budget exceeded")
	ErrArchMismatch     = errors.New("architecture mismatch")
	ErrUnknownStrategy  = errors.New("unknown search strategy")
	ErrUnknownKernel    = errors.New("unknown kernel")

	// ErrCapacityExceeded is the capacity sub-class of ErrIllegalPlacement:
	// it chains onto the broader sentinel, so both
	// errors.Is(err, ErrCapacityExceeded) and
	// errors.Is(err, ErrIllegalPlacement) hold for capacity overflows.
	ErrCapacityExceeded = fmt.Errorf("placement capacity exceeded: %w", ErrIllegalPlacement)
)

// Wrap attaches detail to a sentinel so errors.Is(err, sentinel) holds while
// the message carries the specifics.
func Wrap(sentinel error, format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{sentinel}, args...)...)
}

// Guard converts an internal panic into an error at an API boundary, so no
// panic ever crosses a public surface (the gpuhms facade, the advisory
// service). Anything caught here is a library bug, not caller misuse — the
// message says so. Use as `defer hmserr.Guard(&err)`.
func Guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("gpuhms: internal error (please report): %v", r)
	}
}

// BudgetError is the concrete error of a search stopped by its candidate
// budget. It wraps ErrBudgetExceeded (errors.Is still branches on the
// sentinel) while carrying the search's coverage as data, so callers such as
// the advisory service can report "Evaluated of Total" without parsing the
// message.
type BudgetError struct {
	// Evaluated is the number of candidates actually predicted.
	Evaluated int
	// Total is the size of the legal candidate space (0 when unknown).
	Total int
	// What names the budgeted quantity ("candidate placements",
	// "model evaluations").
	What string
}

// Error renders the coverage, matching the historical Wrap message.
func (e *BudgetError) Error() string {
	if e.Total > 0 {
		return fmt.Sprintf("%v: %d of %d legal %s predicted", ErrBudgetExceeded, e.Evaluated, e.Total, e.What)
	}
	return fmt.Sprintf("%v: %d %s", ErrBudgetExceeded, e.Evaluated, e.What)
}

// Unwrap ties the error into the taxonomy: errors.Is(e, ErrBudgetExceeded).
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }
