// Package service implements the placement-advisory HTTP server behind
// cmd/hmsserved: a JSON API over warm, trained Advisors (one per
// architecture) with a bounded worker pool, an LRU result cache with
// singleflight collapsing of concurrent identical searches, structured
// error → status-code mapping, and graceful shutdown that drains in-flight
// searches via context cancellation. See docs/SERVICE.md for the protocol.
package service

// RankRequest is the body of POST /v1/rank: rank the legal placements of a
// bundled kernel from one profiled sample placement. The zero value of every
// optional field means "default" (k80, scale 1, the kernel's own sample
// placement, unbounded search).
type RankRequest struct {
	// Arch selects the modeled architecture: any registry name or alias
	// (GET /v1/arches); default k80.
	Arch string `json:"arch,omitempty"`
	// Kernel is the bundled workload name (GET /v1/kernels).
	Kernel string `json:"kernel"`
	// Scale is the workload scale factor (default 1, capped at MaxScale).
	Scale int `json:"scale,omitempty"`
	// Sample overrides the kernel's sample placement, in "name:space,…"
	// notation.
	Sample string `json:"sample,omitempty"`
	// TopK keeps only the K fastest placements (0 = whole ranking).
	TopK int `json:"top_k,omitempty"`
	// MaxCandidates stops the search after that many predictions; the
	// response is then 206 Partial Content with coverage attached.
	MaxCandidates int `json:"max_candidates,omitempty"`
	// Parallelism is the number of ranking workers for this search (0 uses
	// the server's configured default, capped at MaxParallelism). Complete
	// rankings are identical for every value; only the subset covered by a
	// max_candidates budget depends on it.
	Parallelism int `json:"parallelism,omitempty"`
	// Strategy selects the search strategy: "exhaustive" (default),
	// "greedy", or "beam-W" (docs/SEARCH.md). Unknown values are rejected
	// with 400 and code "unknown_strategy". Empty uses the server's
	// configured default strategy. Sub-exhaustive responses carry the
	// effective strategy and coverage in RankResponse.Coverage.
	Strategy string `json:"strategy,omitempty"`
	// TimeoutMS bounds the search wall-clock; an exceeded deadline maps to
	// 504 Gateway Timeout. 0 uses the server's default timeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// RankedPlacement is one row of a RankResponse.
type RankedPlacement struct {
	// Placement is the placement spec in "name:space,…" notation.
	Placement string `json:"placement"`
	// PredictedNS is the model's predicted execution time.
	PredictedNS float64 `json:"predicted_ns"`
	// IsSample marks the profiled sample placement's own row.
	IsSample bool `json:"is_sample,omitempty"`
	// SpeedupVsSample is sample-predicted / this-predicted, when the sample
	// placement appears in the ranking (0 otherwise).
	SpeedupVsSample float64 `json:"speedup_vs_sample,omitempty"`
	// MeasuredNS is the ground-truth simulator time, only filled by
	// `hmsplace -json -measure` (the server never simulates candidates).
	MeasuredNS float64 `json:"measured_ns,omitempty"`
}

// Coverage reports how much of the legal candidate space a search predicted:
// attached whenever the ranking is partial (budget-stopped) or produced by a
// sub-exhaustive strategy or an explicit candidate list (`hmsplace` without
// -full), so a response never silently looks exhaustive.
type Coverage struct {
	Evaluated int `json:"evaluated"`
	Total     int `json:"total"`
	// Strategy is the effective search strategy ("exhaustive", "greedy",
	// "beam-4", or "candidates" for a list) after server defaults were
	// applied.
	Strategy string `json:"strategy,omitempty"`
	// Pruned counts candidates the beam search's admissible bound skipped.
	Pruned int `json:"pruned,omitempty"`
}

// RankResponse is the reply of POST /v1/rank and of `hmsplace -json`:
// candidate placements fastest-first. Responses are deterministic functions
// of the request (no timestamps), so a cached reply is byte-identical to
// the search that populated it; freshness is reported out-of-band in the
// X-HMS-Cache header.
type RankResponse struct {
	Arch   string `json:"arch"`
	Kernel string `json:"kernel"`
	Scale  int    `json:"scale"`
	// Sample is the profiled sample placement, formatted.
	Sample string `json:"sample"`
	// Ranked lists candidate placements fastest-first.
	Ranked []RankedPlacement `json:"ranked"`
	// Partial marks a ranking truncated by MaxCandidates (HTTP 206).
	Partial bool `json:"partial,omitempty"`
	// Coverage carries the evaluated/total counts, effective strategy, and
	// pruned-candidate count; attached for partial rankings and for every
	// sub-exhaustive strategy.
	Coverage *Coverage `json:"coverage,omitempty"`
}

// PredictRequest is the body of POST /v1/predict: predict one target
// placement instead of ranking the space.
type PredictRequest struct {
	Arch   string `json:"arch,omitempty"`
	Kernel string `json:"kernel"`
	Scale  int    `json:"scale,omitempty"`
	Sample string `json:"sample,omitempty"`
	// Target is the placement to predict, in "name:space,…" notation
	// (required).
	Target    string `json:"target"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// PredictResponse is the reply of POST /v1/predict.
type PredictResponse struct {
	Arch        string  `json:"arch"`
	Kernel      string  `json:"kernel"`
	Scale       int     `json:"scale"`
	Sample      string  `json:"sample"`
	Target      string  `json:"target"`
	PredictedNS float64 `json:"predicted_ns"`
}

// KernelInfo is one bundled workload in a KernelsResponse.
type KernelInfo struct {
	Name        string `json:"name"`
	Suite       string `json:"suite"`
	KernelName  string `json:"kernel_name"`
	Sample      string `json:"sample,omitempty"`
	Description string `json:"description"`
}

// KernelsResponse is the reply of GET /v1/kernels.
type KernelsResponse struct {
	Kernels []KernelInfo `json:"kernels"`
}

// SpaceCapacity is one row of an architecture's capacity table.
type SpaceCapacity struct {
	// Space is the canonical long space name ("global", "constantRemote", …).
	Space string `json:"space"`
	// CapacityBytes is the byte capacity of the space; -1 means unbounded
	// for placement purposes.
	CapacityBytes int64 `json:"capacity_bytes"`
}

// ArchInfo is one warm architecture in an ArchesResponse.
type ArchInfo struct {
	// Name is the canonical registry name the arch is served under ("k80").
	Name string `json:"name"`
	// Model is the Config's human-readable hardware name.
	Model string `json:"model"`
	// Description is the registry's one-line summary (empty for synthetic
	// advisors registered outside the registry).
	Description string `json:"description,omitempty"`
	// HasRemote marks chiplet architectures whose off-chip spaces split into
	// local/remote variants.
	HasRemote bool `json:"has_remote,omitempty"`
	// InterposerNS is the one-way interposer crossing latency (chiplet only).
	InterposerNS float64 `json:"interposer_ns,omitempty"`
	// Capacities lists the placement capacity of every space legal on this
	// architecture, in declaration order.
	Capacities []SpaceCapacity `json:"capacities"`
}

// ArchesResponse is the reply of GET /v1/arches: the warm architectures, in
// sorted name order. Deterministic, so repeated calls are byte-identical.
type ArchesResponse struct {
	Arches []ArchInfo `json:"arches"`
}

// CompareRequest is the body of POST /v1/compare: rank one kernel's
// placements on several architectures in a single call. Every per-search
// knob matches RankRequest and applies uniformly to each arch.
type CompareRequest struct {
	// Arches lists the architectures to compare (registry aliases accepted).
	// Empty means every warm arch, in sorted name order.
	Arches []string `json:"arches,omitempty"`
	Kernel string   `json:"kernel"`
	Scale  int      `json:"scale,omitempty"`
	// Sample overrides the kernel's sample placement on every arch; it must
	// be legal on each (local spaces only, unless every compared arch is a
	// chiplet).
	Sample        string `json:"sample,omitempty"`
	TopK          int    `json:"top_k,omitempty"`
	MaxCandidates int    `json:"max_candidates,omitempty"`
	Parallelism   int    `json:"parallelism,omitempty"`
	Strategy      string `json:"strategy,omitempty"`
	TimeoutMS     int    `json:"timeout_ms,omitempty"`
}

// CompareArchResult is one architecture's ranking in a CompareResponse.
type CompareArchResult struct {
	Arch   string `json:"arch"`
	Sample string `json:"sample"`
	// Ranked lists this arch's candidate placements fastest-first (top_k
	// applied per arch).
	Ranked   []RankedPlacement `json:"ranked"`
	Partial  bool              `json:"partial,omitempty"`
	Coverage *Coverage         `json:"coverage,omitempty"`
}

// CompareResponse is the reply of POST /v1/compare: per-arch rankings in
// request order (or sorted warm-arch order when the request listed none),
// so responses are deterministic and byte-identical across worker counts.
type CompareResponse struct {
	Kernel  string              `json:"kernel"`
	Scale   int                 `json:"scale"`
	Results []CompareArchResult `json:"results"`
	// Partial is true when any per-arch ranking was budget-truncated.
	Partial bool `json:"partial,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Code is the machine-readable error class, mirroring the hmserr
	// taxonomy: "bad_request", "unknown_kernel", "unknown_arch",
	// "unknown_strategy", "illegal_placement", "invalid_trace",
	// "invalid_profile", "queue_full", "canceled", "deadline", "internal".
	Code string `json:"code"`
	// RequestID echoes the request's identity (the X-Request-ID header) so
	// an error body quoted in a bug report is traceable to its access-log
	// line and sampled spans even when the headers were dropped.
	RequestID string `json:"request_id,omitempty"`
}

// ReadyResponse is the reply of GET /readyz: the readiness probe, distinct
// from /healthz liveness. Ready is false (and the status 503) until every
// per-arch advisor is trained and any snapshot restore has finished.
type ReadyResponse struct {
	Ready bool `json:"ready"`
	// Reason explains a not-ready reply.
	Reason string `json:"reason,omitempty"`
	// Archs lists the warm architectures once ready.
	Archs []string `json:"archs,omitempty"`
}

// HealthResponse is the reply of GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
	// Archs lists the architectures with a warm advisor.
	Archs []string `json:"archs"`
	// UptimeS is seconds since the server started.
	UptimeS float64 `json:"uptime_s"`
}
