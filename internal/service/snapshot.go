package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"gpuhms/internal/obs"
	"gpuhms/internal/snapshot"
)

// Snapshot entry kinds (snapshot.Entry.Kind). The framing layer is
// content-agnostic; these identify the service's payload schemas.
const (
	// SnapKindModel frames a snapModelPayload: one architecture's trained
	// model (core.SavedModel JSON), so a restarted server skips retraining.
	SnapKindModel uint8 = 1
	// SnapKindCache frames a snapCachePayload: one LRU result-cache entry,
	// so a restarted server answers warm keys from the first request on.
	SnapKindCache uint8 = 2
	// SnapKindFleet frames a snapFleetPayload: one fleet result-cache
	// entry, restored into the fleet cache on warm boot.
	SnapKindFleet uint8 = 3
)

// MaxSnapshotKeyLen caps a restored cache key. Legitimate keys are built
// from decode-bounded fields (arch <= 64, kernel <= 256, sample <= 4096
// bytes), so anything bigger is damage or forgery.
const MaxSnapshotKeyLen = 8192

// snapModelPayload is the JSON body of a SnapKindModel entry.
type snapModelPayload struct {
	Arch string `json:"arch"`
	// Model is the core.SavedModel document, kept raw so the snapshot layer
	// does not parse what advisor.NewFromSaved validates anyway.
	Model json.RawMessage `json:"model"`
}

// snapCachePayload is the JSON body of a SnapKindCache entry: one
// result-cache entry.
type snapCachePayload struct {
	Key string `json:"key"`
	// Response is the cached RankResponse (or FleetRankResponse) document.
	// Stored and restored as JSON, it re-encodes byte-identically (encoding
	// a response is a deterministic function of its fields), which is what
	// lets the verify smoke diff pre-crash and post-restore bodies.
	Response json.RawMessage `json:"response"`
}

// snapFleetPayload is the JSON body of a SnapKindFleet entry, the shape of
// snapCachePayload.
type snapFleetPayload = snapCachePayload

// SnapshotContents is a decoded and schema-validated snapshot file: the
// trained models by architecture, the cache entries in LRU order, and the
// count of entries dropped on the way (framing, checksum, version, or
// schema damage). Any level of damage — up to and including a missing or
// unreadable file — yields emptier contents, never a boot failure.
type SnapshotContents struct {
	// Models maps architecture name to its core.SavedModel JSON.
	Models map[string]json.RawMessage
	// Cache lists restorable result-cache entries, least recently used
	// first.
	Cache []CachedResponse
	// Fleet lists restorable fleet-cache entries, least recently used
	// first.
	Fleet []FleetCachedResponse
	// Skipped counts dropped entries across every validation layer.
	Skipped int
}

// ReadSnapshotFile loads and validates the snapshot at path. A missing file
// returns empty contents and a nil error; a corrupt or truncated one
// returns whatever survived plus the skip count, with the error (non-nil
// only for header-level damage or I/O trouble) for the caller to log before
// booting cold.
func ReadSnapshotFile(path string) (*SnapshotContents, error) {
	entries, st, err := snapshot.Load(path)
	c := &SnapshotContents{Models: make(map[string]json.RawMessage), Skipped: st.Skipped}
	for _, e := range entries {
		switch e.Kind {
		case SnapKindModel:
			var p snapModelPayload
			if json.Unmarshal(e.Payload, &p) != nil || p.Arch == "" || len(p.Arch) > 64 || len(p.Model) == 0 {
				c.Skipped++
				continue
			}
			c.Models[p.Arch] = p.Model
		case SnapKindCache:
			if ce, ok := decodeCached(e.Payload, validRank); ok {
				c.Cache = append(c.Cache, ce)
			} else {
				c.Skipped++
			}
		case SnapKindFleet:
			if ce, ok := decodeCached(e.Payload, validFleet); ok {
				c.Fleet = append(c.Fleet, ce)
			} else {
				c.Skipped++
			}
		default:
			c.Skipped++ // unknown kind: written by a future schema, not for us
		}
	}
	return c, err
}

// validRank and validFleet are the schema checks a cached response must
// pass to be restored, from a snapshot file or through RestoreCache /
// RestoreFleetCache.
func validRank(r *RankResponse) bool { return r != nil && r.Kernel != "" }

func validFleet(r *FleetRankResponse) bool {
	return r != nil && len(r.Tenants) > 0 && r.Solver != ""
}

// validKey bounds a restored cache key.
func validKey(key string) bool { return key != "" && len(key) <= MaxSnapshotKeyLen }

// decodeCached parses one cache-entry payload, reporting false on any damage.
func decodeCached[V any](payload []byte, valid func(V) bool) (CachedEntry[V], bool) {
	var p snapCachePayload
	var resp V
	if json.Unmarshal(payload, &p) != nil || !validKey(p.Key) ||
		json.Unmarshal(p.Response, &resp) != nil || !valid(resp) {
		return CachedEntry[V]{}, false
	}
	return CachedEntry[V]{Key: p.Key, Resp: resp}, true
}

// WriteSnapshot streams the server's warm state — every trained model, then
// the result cache in LRU order — as a framed snapshot onto w.
func (s *Server) WriteSnapshot(w io.Writer) error {
	sw, err := snapshot.NewWriter(w)
	if err != nil {
		return err
	}
	return s.appendSnapshotEntries(sw)
}

// appendSnapshotEntries frames the warm state onto an already-headered
// snapshot writer (shared by WriteSnapshot and the atomic save path).
func (s *Server) appendSnapshotEntries(sw *snapshot.Writer) error {
	for _, arch := range s.archs {
		var model bytes.Buffer
		if err := s.advisors[arch].Save(&model); err != nil {
			return fmt.Errorf("service: saving model %s: %w", arch, err)
		}
		payload, err := json.Marshal(snapModelPayload{Arch: arch, Model: model.Bytes()})
		if err != nil {
			return err
		}
		if err := sw.Append(SnapKindModel, payload); err != nil {
			return err
		}
	}
	if err := appendCached(sw, SnapKindCache, s.cache); err != nil {
		return err
	}
	return appendCached(sw, SnapKindFleet, s.fleetCache)
}

// appendCached frames one cache's entries, least recently used first.
func appendCached[V any](sw *snapshot.Writer, kind uint8, c *Cache[V]) error {
	for _, e := range c.Entries() {
		resp, err := json.Marshal(e.Resp)
		if err != nil {
			return err
		}
		payload, err := json.Marshal(snapCachePayload{Key: e.Key, Response: resp})
		if err != nil {
			return err
		}
		if err := sw.Append(kind, payload); err != nil {
			return err
		}
	}
	return nil
}

// SaveSnapshot writes the server's warm state to path atomically (temp file
// + fsync + rename): a crash — or an injected fault from
// Options.SnapshotFaults — mid-write leaves the previous snapshot intact.
// Outcomes land in the snapshot write/error counters and the size gauge.
func (s *Server) SaveSnapshot(path string) error {
	size, err := snapshot.WriteAtomic(path, s.opt.SnapshotFaults, s.appendSnapshotEntries)
	if err != nil {
		s.col.Add(obs.MetricServiceSnapshotWriteErrorsTotal, 1)
		return err
	}
	s.col.Add(obs.MetricServiceSnapshotWritesTotal, 1)
	s.col.Gauge(obs.MetricServiceSnapshotBytes, float64(size))
	return nil
}

// RestoreCache warms the LRU result cache from snapshot contents, skipping
// (and counting) entries that fail revalidation against the current limits.
// It reports how many entries were restored and how many skipped; both also
// land on the snapshot restore counters.
func (s *Server) RestoreCache(entries []CachedResponse) (restored, skipped int) {
	return restoreCached(s, s.cache, entries, validRank)
}

// RestoreFleetCache warms the fleet result cache from snapshot contents
// under the same contract as RestoreCache: entries failing revalidation
// against the current schema are skipped and counted, never fatal.
func (s *Server) RestoreFleetCache(entries []FleetCachedResponse) (restored, skipped int) {
	return restoreCached(s, s.fleetCache, entries, validFleet)
}

// restoreCached is the restore loop behind RestoreCache and
// RestoreFleetCache.
func restoreCached[V any](s *Server, c *Cache[V], entries []CachedEntry[V], valid func(V) bool) (restored, skipped int) {
	for _, e := range entries {
		if !validKey(e.Key) || !valid(e.Resp) {
			skipped++
			continue
		}
		c.Restore(e.Key, e.Resp)
		restored++
	}
	if restored > 0 {
		s.col.Add(obs.MetricServiceSnapshotRestoredTotal, int64(restored))
	}
	if skipped > 0 {
		s.col.Add(obs.MetricServiceSnapshotSkippedTotal, int64(skipped))
	}
	return restored, skipped
}

// Snapshotter periodically persists a server's warm state, with an
// out-of-band trigger for SIGHUP. Start with StartSnapshotter; Stop is
// idempotent and waits for the writer goroutine to exit, so tests can
// assert no leak.
type Snapshotter struct {
	s        *Server
	path     string
	interval time.Duration
	logf     func(format string, args ...any)

	trigger  chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// StartSnapshotter begins writing snapshots of s to path every interval
// (interval <= 0 disables the timer; Trigger still works). Write failures
// are logged through logf (nil discards) and counted; the previous snapshot
// survives them.
func (s *Server) StartSnapshotter(path string, interval time.Duration, logf func(string, ...any)) *Snapshotter {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sn := &Snapshotter{
		s:        s,
		path:     path,
		interval: interval,
		logf:     logf,
		trigger:  make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go sn.run()
	return sn
}

// Trigger requests one snapshot write outside the timer (the SIGHUP path).
// A write already pending coalesces with it.
func (sn *Snapshotter) Trigger() {
	select {
	case sn.trigger <- struct{}{}:
	default:
	}
}

// Stop ends the periodic writer and waits for it to exit. It does not write
// a final snapshot — the shutdown sequence saves one explicitly after the
// drain, when the cache has stopped changing.
func (sn *Snapshotter) Stop() {
	sn.stopOnce.Do(func() { close(sn.stop) })
	<-sn.done
}

// run is the writer goroutine.
func (sn *Snapshotter) run() {
	defer close(sn.done)
	var tick <-chan time.Time
	if sn.interval > 0 {
		t := time.NewTicker(sn.interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-sn.stop:
			return
		case <-tick:
		case <-sn.trigger:
		}
		if err := sn.s.SaveSnapshot(sn.path); err != nil {
			sn.logf("snapshot write failed (previous snapshot intact): %v", err)
		} else {
			sn.logf("snapshot written to %s", sn.path)
		}
	}
}
