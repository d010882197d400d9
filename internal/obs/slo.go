package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// SLO metric names (see docs/OBSERVABILITY.md for the full catalogue).
// Quantile gauges are per key — `service_slo_p99_ns_rank`,
// `service_slo_p99_ns_rank_hit` — built by SLOQuantileGauge; the burn
// gauges measure how fast the error budget is being consumed: a value of 1
// means the budget burns exactly as fast as the SLO allows, above 1 the
// service is out of budget over the rolling window.
const (
	// MetricServiceSLOLatencyBurnPrefix + route gauges the latency
	// error-budget burn rate of one route: the fraction of windowed
	// requests slower than the p99 target, divided by the 1% the SLO
	// allows.
	MetricServiceSLOLatencyBurnPrefix = "service_slo_latency_burn_"
	// MetricServiceSLOAvailabilityBurn gauges the availability budget burn:
	// the 5xx fraction over the window divided by the allowed fraction
	// (1 - availability target).
	MetricServiceSLOAvailabilityBurn = "service_slo_availability_burn"
	// MetricServiceSLOWindowRequests gauges how many requests the rolling
	// window currently holds (the denominator of every burn rate).
	MetricServiceSLOWindowRequests = "service_slo_window_requests"
	// MetricServiceSLOTargetP99MS echoes the configured latency target so a
	// dashboard can draw the threshold without knowing the server's flags.
	MetricServiceSLOTargetP99MS = "service_slo_target_p99_ms"
	// MetricServiceSLOTargetAvailability echoes the availability target.
	MetricServiceSLOTargetAvailability = "service_slo_target_availability"
)

// SLOQuantileGauge names the rolling-window latency quantile gauge of one
// key: SLOQuantileGauge("rank_hit", 99) = "service_slo_p99_ns_rank_hit".
func SLOQuantileGauge(key string, pct int) string {
	return fmt.Sprintf("service_slo_p%d_ns_%s", pct, key)
}

// sloRingCap bounds the samples kept per key: at high request rates the
// window is effectively "the last sloRingCap samples inside the window",
// which is plenty for a p99 estimate; at low rates the time bound governs.
const sloRingCap = 4096

// sloSample is one recorded request. at is its offset from the tracker's
// epoch, not a time.Time: every ring holds sloRingCap samples, and this
// makes each 24 bytes instead of 40. Time.Sub still uses the monotonic
// clock reading.
type sloSample struct {
	at time.Duration
	ns float64
	ok bool // false for 5xx (availability SLO violations)
}

// sloRing is a fixed-capacity ring of the most recent samples for one key.
type sloRing struct {
	buf  [sloRingCap]sloSample
	next int
	n    int // filled entries, capped at sloRingCap
}

func (r *sloRing) add(s sloSample) {
	r.buf[r.next] = s
	r.next = (r.next + 1) % sloRingCap
	if r.n < sloRingCap {
		r.n++
	}
}

// windowed appends the latencies of samples newer than cutoff to dst and
// counts total and failed samples.
func (r *sloRing) windowed(cutoff time.Duration, dst []float64) (lat []float64, total, failed int) {
	lat = dst
	for i := 0; i < r.n; i++ {
		s := &r.buf[i]
		if s.at < cutoff {
			continue
		}
		total++
		if !s.ok {
			failed++
		}
		lat = append(lat, s.ns)
	}
	return lat, total, failed
}

// SLOOptions configures an SLOTracker. The zero value gets a 60s window, a
// 250ms p99 target, 99.9% availability, and the wall clock.
type SLOOptions struct {
	// Window is the rolling time window quantiles and burn rates cover.
	Window time.Duration
	// TargetP99 is the latency SLO: 99% of a route's windowed requests
	// should finish faster than this.
	TargetP99 time.Duration
	// TargetAvailability is the availability SLO (fraction of non-5xx
	// responses), e.g. 0.999.
	TargetAvailability float64
	// Now is the tracker's clock; tests inject a fake one.
	Now func() time.Time
}

func (o SLOOptions) withDefaults() SLOOptions {
	if o.Window <= 0 {
		o.Window = 60 * time.Second
	}
	if o.TargetP99 <= 0 {
		o.TargetP99 = 250 * time.Millisecond
	}
	if o.TargetAvailability <= 0 || o.TargetAvailability >= 1 {
		o.TargetAvailability = 0.999
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// SLOTracker keeps rolling-window latency distributions per key (a route,
// or a route×cache-state pair) and renders p50/p95/p99 quantiles plus
// error-budget burn gauges into a Registry at scrape time. Recording is a
// ring-buffer store under one mutex — cheap enough for the request hot
// path — while quantile sorting happens only in Publish. All methods are
// safe for concurrent use; the clock is injectable so windows are testable
// without sleeping.
type SLOTracker struct {
	opt   SLOOptions
	epoch time.Time // sample times are offsets from it

	mu   sync.Mutex
	keys map[string]*sloRing
}

// NewSLOTracker returns a tracker with the given options (zero value OK).
func NewSLOTracker(opt SLOOptions) *SLOTracker {
	opt = opt.withDefaults()
	return &SLOTracker{opt: opt, epoch: opt.Now(), keys: make(map[string]*sloRing)}
}

// Targets reports the tracker's effective SLO targets.
func (t *SLOTracker) Targets() (p99 time.Duration, availability float64) {
	return t.opt.TargetP99, t.opt.TargetAvailability
}

// Record stores one request outcome under the route key and, when
// cacheState is non-empty, under the route_cacheState key too — so
// /metrics can answer both "what is rank's p99" and "what is rank's p99
// for cache hits".
func (t *SLOTracker) Record(route, cacheState string, latencyNS float64, ok bool) {
	s := sloSample{at: t.since(), ns: latencyNS, ok: ok}
	t.mu.Lock()
	t.ring(route).add(s)
	if cacheState != "" {
		t.ring(route + "_" + cacheState).add(s)
	}
	t.mu.Unlock()
}

// since is the current time as an offset from the tracker's epoch.
func (t *SLOTracker) since() time.Duration { return t.opt.Now().Sub(t.epoch) }

// ring returns (creating if needed) the ring of one key; caller holds t.mu.
func (t *SLOTracker) ring(key string) *sloRing {
	r := t.keys[key]
	if r == nil {
		r = &sloRing{}
		t.keys[key] = r
	}
	return r
}

// quantile returns the pth quantile (0..1) of sorted samples.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// Stats summarizes one key's rolling window.
type SLOStats struct {
	Requests int
	Failed   int
	P50NS    float64
	P95NS    float64
	P99NS    float64
	// OverTarget counts windowed requests slower than the p99 target.
	OverTarget int
}

// WindowStats computes one key's rolling-window summary (zero value when
// the key has no samples in the window).
func (t *SLOTracker) WindowStats(key string) SLOStats {
	cutoff := t.since() - t.opt.Window
	t.mu.Lock()
	r := t.keys[key]
	var lat []float64
	var total, failed int
	if r != nil {
		lat, total, failed = r.windowed(cutoff, nil)
	}
	t.mu.Unlock()
	return t.stats(lat, total, failed)
}

func (t *SLOTracker) stats(lat []float64, total, failed int) SLOStats {
	sort.Float64s(lat)
	st := SLOStats{
		Requests: total,
		Failed:   failed,
		P50NS:    quantile(lat, 0.50),
		P95NS:    quantile(lat, 0.95),
		P99NS:    quantile(lat, 0.99),
	}
	target := float64(t.opt.TargetP99.Nanoseconds())
	st.OverTarget = len(lat) - sort.SearchFloat64s(lat, target)
	return st
}

// Publish renders the rolling-window quantiles and burn gauges into reg.
// It is the scrape hook the service registers on its Collector: quantile
// sorting and window filtering cost nothing until someone actually scrapes
// /metrics. Keys with no windowed samples keep their last published gauge
// (gauges are latest-value; an idle route's numbers go stale rather than
// vanishing mid-dashboard).
func (t *SLOTracker) Publish(reg *Registry) {
	cutoff := t.since() - t.opt.Window
	type keyed struct {
		key           string
		lat           []float64
		total, failed int
		isRoute       bool // burn gauges are per route, not per cache state
	}
	t.mu.Lock()
	snaps := make([]keyed, 0, len(t.keys))
	for key, r := range t.keys {
		lat, total, failed := r.windowed(cutoff, nil)
		if total == 0 {
			continue
		}
		snaps = append(snaps, keyed{key: key, lat: lat, total: total, failed: failed, isRoute: !hasCacheSuffix(key)})
	}
	t.mu.Unlock()

	allowedSlow := 0.01 // the "99" in p99: 1% of requests may exceed the target
	allowedFail := 1 - t.opt.TargetAvailability
	windowTotal, windowFailed := 0, 0
	for _, k := range snaps {
		st := t.stats(k.lat, k.total, k.failed)
		reg.Gauge(SLOQuantileGauge(k.key, 50), st.P50NS)
		reg.Gauge(SLOQuantileGauge(k.key, 95), st.P95NS)
		reg.Gauge(SLOQuantileGauge(k.key, 99), st.P99NS)
		if k.isRoute {
			windowTotal += st.Requests
			windowFailed += st.Failed
			burn := float64(st.OverTarget) / float64(st.Requests) / allowedSlow
			reg.Gauge(MetricServiceSLOLatencyBurnPrefix+k.key, burn)
		}
	}
	if windowTotal > 0 {
		reg.Gauge(MetricServiceSLOAvailabilityBurn, float64(windowFailed)/float64(windowTotal)/allowedFail)
	}
	reg.Gauge(MetricServiceSLOWindowRequests, float64(windowTotal))
	reg.Gauge(MetricServiceSLOTargetP99MS, float64(t.opt.TargetP99.Milliseconds()))
	reg.Gauge(MetricServiceSLOTargetAvailability, t.opt.TargetAvailability)
}

// hasCacheSuffix reports whether key is a route×cache-state key
// ("rank_hit") rather than a plain route key ("rank").
func hasCacheSuffix(key string) bool {
	for _, suffix := range []string{"_hit", "_miss", "_shared", "_none"} {
		if len(key) > len(suffix) && key[len(key)-len(suffix):] == suffix {
			return true
		}
	}
	return false
}
