package service

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"gpuhms/internal/obs"
)

// RankKey is the cache/singleflight key of a rank request:
// (arch, kernel, scale, sample, options, strategy). The client-requested
// timeout is deliberately excluded — it bounds how long a search may run,
// not what it computes — so identical searches with different deadlines
// collapse into one flight. Parallelism is likewise excluded for complete
// rankings — the engine guarantees worker-count-invariant output for every
// strategy — but keyed for budgeted ones (max_candidates > 0), where the
// covered subset follows the shard interleaving. Strategy is always keyed
// (callers must normalize it first: decode canonicalizes the spelling and
// the rank handler applies the server default), since different strategies
// legitimately produce different rankings. The sample spec is keyed as
// written; two spellings of the same placement ("a:G,b:T" vs "b:T,a:G") are
// distinct keys and at worst cost one redundant search.
func RankKey(req *RankRequest) string {
	key := fmt.Sprintf("%s|%s|%d|%s|k%d|c%d|s%s",
		req.Arch, req.Kernel, req.Scale, req.Sample, req.TopK, req.MaxCandidates, req.Strategy)
	if req.MaxCandidates > 0 && req.Parallelism > 0 {
		key += fmt.Sprintf("|p%d", req.Parallelism)
	}
	return key
}

// flight is one in-progress search and the requests waiting on it: every
// request with its cache key, or the one /v1/predict request that submitted
// it. finish fills resp/err and then closes done; waiters read the fields
// only after <-done, so the channel close publishes them.
type flight[V any] struct {
	done chan struct{}
	resp V
	err  error
}

func newFlight[V any]() *flight[V] { return &flight[V]{done: make(chan struct{})} }

// finish publishes the flight's outcome and wakes every waiter. It must run
// exactly once.
func (fl *flight[V]) finish(resp V, err error) {
	fl.resp, fl.err = resp, err
	close(fl.done)
}

// wait blocks until the flight finishes or ctx ends (the mapped 499/504
// error), timing the request's wait stage.
func (fl *flight[V]) wait(ctx context.Context) (V, error) {
	defer TraceFrom(ctx).BeginStage(StageWait)()
	select {
	case <-fl.done:
		return fl.resp, fl.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// cacheEntry is one LRU slot.
type cacheEntry[V any] struct {
	key  string
	resp V
}

// Cache is the LRU result cache with singleflight collapsing, generic over
// the cached response type — the rank and fleet caches are two
// instantiations of the same machinery. Begin either answers from the cache,
// joins an in-flight search, or elects the caller leader of a new flight;
// Complete publishes a flight's outcome (caching it on success) and wakes
// every waiter. All methods are safe for concurrent use. Only successful
// (including partial/206) responses are cached; errors are never negatively
// cached, so a failed search is retried by the next request.
type Cache[V any] struct {
	rec obs.Recorder

	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	flights map[string]*flight[V]
}

// NewCache returns a cache keeping at most capacity responses (capacity
// <= 0 disables caching but keeps singleflight collapsing). The recorder
// receives the eviction counter.
func NewCache[V any](capacity int, rec obs.Recorder) *Cache[V] {
	return &Cache[V]{
		rec:     obs.OrNop(rec),
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight[V]),
	}
}

// Begin routes one request. Exactly one of the returns is meaningful:
//
//   - fl == nil: served from cache, resp holds the answer (the type
//     parameter need not be nil-comparable, so the nil flight — not the
//     response — is the hit signal).
//   - leader true: the caller must run the search and call Complete; fl is
//     the flight it must complete.
//   - otherwise: an identical search is in flight; wait on fl.done.
func (c *Cache[V]) Begin(key string) (resp V, fl *flight[V], leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry[V]).resp, nil, false
	}
	if fl, ok := c.flights[key]; ok {
		return resp, fl, false
	}
	fl = newFlight[V]()
	c.flights[key] = fl
	return resp, fl, true
}

// Complete publishes a leader's outcome: the response is cached when err is
// nil, the flight is retired, and every waiter wakes with the shared
// result.
func (c *Cache[V]) Complete(key string, resp V, err error) {
	c.mu.Lock()
	if err == nil {
		c.insert(key, resp)
	}
	fl := c.flights[key]
	delete(c.flights, key)
	c.mu.Unlock()
	if fl != nil {
		fl.finish(resp, err)
	}
}

// insert adds a response under c.mu, evicting from the LRU tail.
func (c *Cache[V]) insert(key string, resp V) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry[V]).resp = resp
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry[V]{key: key, resp: resp})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry[V]).key)
		c.rec.Add(obs.MetricServiceCacheEvictionsTotal, 1)
	}
}

// Len reports the number of cached responses.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CachedEntry is one (key, response) pair of a cache's snapshot view.
type CachedEntry[V any] struct {
	Key  string
	Resp V
}

// CachedResponse is the rank cache's snapshot entry.
type CachedResponse = CachedEntry[*RankResponse]

// FleetCachedResponse is the fleet cache's snapshot entry.
type FleetCachedResponse = CachedEntry[*FleetRankResponse]

// Entries returns the cached responses least-recently-used first, so
// replaying them through Restore in order reproduces the recency order
// (the most recently used entry is re-inserted last and evicted last).
func (c *Cache[V]) Entries() []CachedEntry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CachedEntry[V], 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry[V])
		out = append(out, CachedEntry[V]{Key: e.key, Resp: e.resp})
	}
	return out
}

// Restore inserts one entry as if it had just been served, subject to the
// normal LRU capacity. It is the warm-boot path; callers validate entries
// (service.RestoreCache, service.RestoreFleetCache) before handing them
// over.
func (c *Cache[V]) Restore(key string, resp V) {
	c.mu.Lock()
	c.insert(key, resp)
	c.mu.Unlock()
}
