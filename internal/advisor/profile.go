package advisor

import (
	"context"
	"fmt"
	"sync"

	"gpuhms/internal/core"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// profileMemoCap bounds the sample profiles one Advisor keeps. A profile is
// a few hundred bytes, so a full memo stays well under a megabyte however
// many scale and sample combinations requests name.
const profileMemoCap = 1024

// profileKey names a registry request's sample profile on one Advisor, whose
// Cfg supplies the arch. A registry trace is a pure function of (kernel,
// scale), so no trace digest is needed; sample is the canonical
// placement.Format string, so an omitted sample and the explicit default
// share one entry.
type profileKey struct {
	kernel string
	scale  int
	sample string
}

// profileCall is one profiling run of the memo, in flight or finished. done
// closes when the run ends; prof is valid after that when ok is set.
type profileCall struct {
	done chan struct{}
	prof core.SampleProfile
	ok   bool
}

// profileMemo is a bounded, singleflighted memo of sample profiles. Only
// successful runs stay: a failed or canceled run is removed before its done
// channel closes, and the callers that waited on it retry. Once the memo
// holds profileMemoCap keys, each new key evicts the oldest one inserted.
// The zero value is ready to use.
type profileMemo struct {
	mu    sync.Mutex
	calls map[profileKey]*profileCall
	order []profileKey // insertion ring; order[next] is evicted next once full
	next  int
}

// do returns key's profile, calling run when no finished or in-flight run of
// key exists; concurrent callers of one key share a single run. A caller
// waiting on another's run stops when its own ctx is done. ran reports
// whether this caller's run produced the result.
func (m *profileMemo) do(ctx context.Context, key profileKey, run func() (core.SampleProfile, error)) (prof core.SampleProfile, ran bool, err error) {
	for {
		m.mu.Lock()
		c, found := m.calls[key]
		if !found {
			c = &profileCall{done: make(chan struct{})}
			m.insert(key, c)
		}
		m.mu.Unlock()
		if !found {
			prof, err = m.lead(key, c, run)
			return prof, true, err
		}
		select {
		case <-c.done:
		default:
			// In flight: wait for it, or for this caller to give up.
			select {
			case <-c.done:
			case <-ctx.Done():
				return core.SampleProfile{}, false, ctx.Err()
			}
		}
		if c.ok {
			return c.prof, false, nil
		}
		// The run failed; its error was its caller's. Look the key up again,
		// leading a fresh run if no other caller has started one.
	}
}

// lead runs c for key. A run that fails or panics leaves the memo before
// done closes, so no waiter can find it again.
func (m *profileMemo) lead(key profileKey, c *profileCall, run func() (core.SampleProfile, error)) (core.SampleProfile, error) {
	defer func() {
		if !c.ok {
			m.mu.Lock()
			if m.calls[key] == c {
				delete(m.calls, key)
			}
			m.mu.Unlock()
		}
		close(c.done)
	}()
	prof, err := run()
	if err != nil {
		return core.SampleProfile{}, err
	}
	c.prof, c.ok = prof, true
	return prof, nil
}

// insert adds c under key, evicting the oldest inserted key when the ring is
// full. Every overwritten ring slot deletes its key, so the map never holds
// more than profileMemoCap entries. m.mu must be held.
func (m *profileMemo) insert(key profileKey, c *profileCall) {
	if m.calls == nil {
		m.calls = make(map[profileKey]*profileCall)
	}
	if len(m.order) < profileMemoCap {
		m.order = append(m.order, key)
	} else {
		delete(m.calls, m.order[m.next])
		m.order[m.next] = key
		m.next = (m.next + 1) % profileMemoCap
	}
	m.calls[key] = c
}

// KernelPredictor is the advisor's front door for registry requests: it
// resolves (kernel, scale, sampleSpec) with kernels.Resolve, profiles the
// sample placement, and returns the trace, the sample and a predictor seeded
// with the profile. With the default simulator (a nil Measurer) the profile
// is memoized for the life of the advisor, so every later request for the
// same kernel, scale and sample reuses it; the trace and the predictor are
// built per call. A substituted Measurer is consulted on every call.
func (a *Advisor) KernelPredictor(ctx context.Context, kernel string, scale int, sampleSpec string) (tr *trace.Trace, sample *placement.Placement, pr *core.Predictor, err error) {
	defer hmserr.Guard(&err)
	if err := checkConfig(a.Cfg); err != nil {
		return nil, nil, nil, err
	}
	tr, sample, err = kernels.Resolve(a.Cfg, kernel, scale, sampleSpec)
	if err != nil {
		return nil, nil, nil, err
	}
	pr, err = a.predictor(ctx, tr, sample, &profileKey{kernel: kernel, scale: scale, sample: sample.Format(tr)})
	if err != nil {
		return nil, nil, nil, err
	}
	return tr, sample, pr, nil
}

// predictor profiles the sample placement of t and builds a predictor from
// the profile. The memo serves the profile when key names a registry
// request and the default simulator measures; otherwise the measurer runs.
func (a *Advisor) predictor(ctx context.Context, t *trace.Trace, sample *placement.Placement, key *profileKey) (*core.Predictor, error) {
	if err := checkConfig(a.Cfg); err != nil {
		return nil, err
	}
	if t == nil {
		return nil, hmserr.Wrap(hmserr.ErrInvalidTrace, "nil trace")
	}
	// Validation polls the context: a canceled request stops there, before
	// any profiling.
	if err := t.ValidateContext(ctx); err != nil {
		return nil, err
	}
	run := func() (core.SampleProfile, error) { return a.profile(ctx, t, sample) }
	var prof core.SampleProfile
	var err error
	if key != nil && a.Measurer == nil {
		var ran bool
		prof, ran, err = a.profiles.do(ctx, *key, run)
		switch {
		case ran:
			a.rec().Add("advisor_profile_memo_misses_total", 1)
		case err == nil:
			a.rec().Add("advisor_profile_memo_hits_total", 1)
		}
	} else {
		prof, err = run()
	}
	if err != nil {
		return nil, err
	}
	p, err := core.NewPredictor(a.Model, t, sample, prof)
	if err != nil {
		return nil, err
	}
	p.SetRecorder(a.Recorder)
	return p, nil
}

// profile runs the measurer on the sample placement, recording the run as a
// span.
func (a *Advisor) profile(ctx context.Context, t *trace.Trace, sample *placement.Placement) (core.SampleProfile, error) {
	rec := a.rec()
	var start float64
	if rec.Enabled() {
		start = rec.Now()
	}
	m, err := a.measurer().RunContext(ctx, t, sample, sample)
	if err != nil {
		return core.SampleProfile{}, fmt.Errorf("gpuhms: profiling sample placement: %w", err)
	}
	if rec.Enabled() {
		rec.Span("advisor", "profile "+sample.Format(t), start, rec.Now()-start)
	}
	return core.SampleProfile{TimeNS: m.TimeNS, Events: m.Events}, nil
}
