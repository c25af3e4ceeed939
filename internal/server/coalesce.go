package server

import (
	"context"
	"strconv"
	"strings"
	"sync"

	"figfusion/internal/media"
	"figfusion/internal/obs"
	"figfusion/internal/topk"
)

// searchKey identifies one search's complete input: the canonical query
// (corpus ID, or interned feature list + month for ad-hoc queries), the
// depth, the exclusion and the algorithm selector. Two requests with equal
// keys must — by the engine's determinism guarantees — produce identical
// result bytes at the same model generation, which is what makes sharing
// one execution and caching its output sound.
type searchKey struct {
	query   string
	k       int
	exclude int64
	ta      bool
}

// flightKey scopes an in-flight execution to the model generation its
// leader observed: a follower only joins a flight computing against the
// generation the follower itself read, never one from before an insert.
type flightKey struct {
	gen uint64
	key searchKey
}

// flight is one in-progress search execution; followers block on done and
// read the results the leader wrote before closing it.
type flight struct {
	done    chan struct{}
	items   []topk.Item
	partial bool
	err     error
}

// cacheEntry is one completed result, valid only at the generation it was
// computed under.
type cacheEntry struct {
	gen     uint64
	items   []topk.Item
	partial bool
}

// coalescer deduplicates identical searches two ways: in-flight
// single-flight sharing (concurrent identical requests ride one engine
// execution) and a generation-stamped result cache (repeat requests skip
// the engine entirely while the corpus is unchanged). Invalidation is the
// floatcache idiom: every entry carries the corpus-global model generation
// it was computed at, lookups demand an exact match, and the store-side
// re-check discards results computed across an insert — so ingestion
// invalidates the cache automatically, with no list of keys to chase.
type coalescer struct {
	gen      func() uint64 // corpus-global model generation (atomic read)
	capacity int

	mu       sync.Mutex
	inflight map[flightKey]*flight
	cache    map[searchKey]cacheEntry

	hits, misses, shared *obs.Counter // nil without a registry
}

// coalesceCap is the served result-cache capacity in entries. At capacity
// the cache flushes wholesale — entries refill in one coalesced round.
const coalesceCap = 1024

func newCoalescer(capacity int, gen func() uint64, reg *obs.Registry) *coalescer {
	c := &coalescer{
		gen:      gen,
		capacity: capacity,
		inflight: make(map[flightKey]*flight),
		cache:    make(map[searchKey]cacheEntry),
	}
	if reg != nil {
		c.hits = reg.Counter("server.coalesce.hits")
		c.misses = reg.Counter("server.coalesce.misses")
		c.shared = reg.Counter("server.coalesce.shared")
		reg.Func("server.coalesce.entries", func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return int64(len(c.cache))
		})
	}
	return c
}

// do answers key from the cache, an in-flight execution, or by running the
// search itself as the flight's leader. Degraded (partial) cluster answers
// are shared with concurrent followers but never cached: the next request
// should re-ask a cluster that may have healed.
func (c *coalescer) do(ctx context.Context, key searchKey, run func(context.Context) ([]topk.Item, bool, error)) ([]topk.Item, bool, error) {
	// Read the generation before any work (the floatcache discipline):
	// results are valid only at the generation they were computed under.
	gen := c.gen()
	e, f, leader := c.acquire(gen, key)
	if f == nil {
		if c.hits != nil {
			c.hits.Inc()
		}
		return e.items, e.partial, nil
	}
	if !leader {
		if c.shared != nil {
			c.shared.Inc()
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.err != nil {
			// The leader failed — possibly only because its own client went
			// away. Fall back to an uncoalesced run under this request's
			// context rather than propagating a stranger's cancellation.
			return run(ctx)
		}
		return f.items, f.partial, nil
	}
	if c.misses != nil {
		c.misses.Inc()
	}
	f.items, f.partial, f.err = run(ctx)
	c.settle(gen, key, f)
	close(f.done)
	return f.items, f.partial, f.err
}

// acquire classifies the caller under one lock hold: a fresh cache entry
// (f == nil), an existing flight to follow (f, leader false), or a new
// flight this caller must lead (f, leader true).
func (c *coalescer) acquire(gen uint64, key searchKey) (cacheEntry, *flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.cache[key]; ok && e.gen == gen {
		return e, nil, false
	}
	fk := flightKey{gen: gen, key: key}
	if f, ok := c.inflight[fk]; ok {
		return cacheEntry{}, f, false
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[fk] = f
	return cacheEntry{}, f, true
}

// settle retires the flight and caches its result while it is still
// fresh. The store-side generation re-check is floatcache's second half:
// an insert that landed mid-flight changed what this query should answer,
// so a result computed across the bump must not enter the cache.
// Followers of the flight still receive it — they joined at the
// generation the leader read, when it was the freshest answer in
// progress.
func (c *coalescer) settle(gen uint64, key searchKey, f *flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.inflight, flightKey{gen: gen, key: key})
	if f.err == nil && !f.partial && c.gen() == gen {
		if len(c.cache) >= c.capacity {
			// Wholesale flush at capacity: entries are small and refill in
			// one coalesced round; per-entry recency tracking is not worth
			// the bookkeeping on the hot path.
			c.cache = make(map[searchKey]cacheEntry, c.capacity)
		}
		c.cache[key] = cacheEntry{gen: gen, items: f.items, partial: f.partial}
	}
}

// coalescedSearch runs one search through the coalescer when it is
// enabled; otherwise straight through to the backend.
func (s *Server) coalescedSearch(ctx context.Context, q *media.Object, k int, exclude media.ObjectID, ta bool) ([]topk.Item, bool, error) {
	if s.coal == nil {
		return s.backend.Query(ctx, q, k, exclude, ta)
	}
	key := searchKey{query: canonicalQuery(q), k: k, exclude: int64(exclude), ta: ta}
	return s.coal.do(ctx, key, func(ctx context.Context) ([]topk.Item, bool, error) {
		return s.backend.Query(ctx, q, k, exclude, ta)
	})
}

// canonicalQuery renders a resolved query object as a cache key: corpus
// objects by ID (the ID fixes the feature vector), ad-hoc objects (free
// text or wire feature lists, ID < 0) by their interned feature IDs,
// counts and month. Requests spelled differently but resolving to the same
// features coalesce.
func canonicalQuery(q *media.Object) string {
	if q.ID >= 0 {
		return "id:" + strconv.FormatInt(int64(q.ID), 10)
	}
	var b strings.Builder
	b.WriteString("f:")
	for i, fid := range q.Feats {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(fid), 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(uint64(q.Counts[i]), 10))
	}
	b.WriteString(";m:")
	b.WriteString(strconv.Itoa(q.Month))
	return b.String()
}
