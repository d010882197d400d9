package obs

// Canonical metric names of the placement-advisory service (internal/service,
// cmd/hmsserved), following the package naming convention
// `<subsystem>_<quantity>_<unit>` with `_total` for monotonic counters.
// They are defined here, next to the registry, so the service, its tests,
// and the documentation (docs/SERVICE.md) agree on one spelling.
const (
	// MetricServiceRequestsTotal counts HTTP requests by the service,
	// whatever their outcome.
	MetricServiceRequestsTotal = "service_requests_total"
	// MetricServiceErrorsTotal counts requests answered with a 5xx status.
	MetricServiceErrorsTotal = "service_errors_total"
	// MetricServiceRejectedTotal counts requests shed with 429 because the
	// worker queue was full (the backpressure path).
	MetricServiceRejectedTotal = "service_rejected_total"
	// MetricServiceSearchesTotal counts ranking searches actually executed
	// (cache misses that reached an Advisor), the denominator of the
	// cache/singleflight effectiveness ratio.
	MetricServiceSearchesTotal = "service_searches_total"
	// MetricServiceCacheHitsTotal counts rank requests served from the LRU
	// result cache.
	MetricServiceCacheHitsTotal = "service_cache_hits_total"
	// MetricServiceCacheMissesTotal counts rank requests that missed the
	// cache (and either led a search or joined one in flight).
	MetricServiceCacheMissesTotal = "service_cache_misses_total"
	// MetricServiceCacheEvictionsTotal counts LRU evictions.
	MetricServiceCacheEvictionsTotal = "service_cache_evictions_total"
	// MetricServiceSingleflightSharedTotal counts requests that joined an
	// identical search already in flight instead of starting their own.
	MetricServiceSingleflightSharedTotal = "service_singleflight_shared_total"
	// MetricServiceQueueDepth gauges the worker pool's queued (not yet
	// running) jobs.
	MetricServiceQueueDepth = "service_queue_depth"
	// MetricServiceInflight gauges the jobs currently running on workers.
	MetricServiceInflight = "service_inflight"
	// MetricServiceQueueWaitNS is the histogram of time jobs spent queued
	// before a worker picked them up.
	MetricServiceQueueWaitNS = "service_queue_wait_ns"
	// MetricServiceRequestNS is the histogram of whole-request latencies
	// (decode to response) of the compute endpoints.
	MetricServiceRequestNS = "service_request_ns"
	// MetricServiceShedDeadlineTotal counts requests shed with 504 because
	// their remaining deadline budget could not cover the observed median
	// service time (doomed work rejected before wasting a worker).
	MetricServiceShedDeadlineTotal = "service_shed_deadline_total"
	// MetricServiceReady gauges readiness: 1 once every advisor is trained
	// and any snapshot restore has finished (GET /readyz flips to 200).
	MetricServiceReady = "service_ready"
	// MetricServiceSnapshotRestoredTotal counts warm-boot entries (cached
	// responses, trained models) restored from a snapshot.
	MetricServiceSnapshotRestoredTotal = "service_snapshot_entries_restored_total"
	// MetricServiceSnapshotSkippedTotal counts snapshot entries dropped by
	// checksum, framing, version, or schema validation. Nonzero after a boot
	// means the snapshot was damaged and the service degraded toward a cold
	// start instead of failing.
	MetricServiceSnapshotSkippedTotal = "service_snapshot_entries_skipped_total"
	// MetricServiceSnapshotWritesTotal counts successful snapshot writes
	// (periodic, SIGHUP-triggered, and shutdown-drain).
	MetricServiceSnapshotWritesTotal = "service_snapshot_writes_total"
	// MetricServiceSnapshotWriteErrorsTotal counts failed snapshot writes;
	// the previous on-disk snapshot stays intact when one fails.
	MetricServiceSnapshotWriteErrorsTotal = "service_snapshot_write_errors_total"
	// MetricServiceSnapshotBytes gauges the size of the last snapshot
	// successfully written.
	MetricServiceSnapshotBytes = "service_snapshot_bytes"
	// MetricServiceTraceSampledTotal counts requests whose per-stage spans
	// were recorded into the Chrome-trace timeline (every Nth request, per
	// the trace-sampling option). Every request gets an access-log line and
	// an X-Request-ID regardless.
	MetricServiceTraceSampledTotal = "service_trace_sampled_total"
	// MetricServiceFleetSolvesTotal counts fleet placement solves actually
	// executed (cache hits and joined singleflights excluded).
	MetricServiceFleetSolvesTotal = "service_fleet_solves_total"
)

// ServiceLatencyBuckets is the bucket layout of the service latency
// histograms: decades from 1µs to 100s (in nanoseconds). Queue waits sit in
// the low decades, cold searches in the high ones; DefaultBuckets tops out
// at ~16ms and would fold every slow search into +Inf.
var ServiceLatencyBuckets = []float64{
	1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
}

// RegisterServiceMetrics pre-registers the service histograms with the
// latency bucket layout (counters and gauges need no registration).
func RegisterServiceMetrics(r *Registry) {
	r.RegisterHistogram(MetricServiceQueueWaitNS, ServiceLatencyBuckets)
	r.RegisterHistogram(MetricServiceRequestNS, ServiceLatencyBuckets)
}
