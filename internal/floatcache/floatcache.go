// Package floatcache provides the sharded, generation-stamped float64
// memoisation cache behind the query hot path. The memoised quantities
// (clique CorS weights and per-(feature, object) smoothing sums, both
// owned by corr.Model) are derived from corpus-global statistics, which
// gives them two properties this cache encodes:
//
//   - They are read by every concurrent query, so a single global mutex
//     serialises the whole serving path. Entries are striped over
//     fixed-size shards by key hash, each behind its own RWMutex, so
//     concurrent readers of different shards never contend.
//   - They all become stale at once when the corpus grows. Each shard is
//     stamped with the generation of the statistics its entries were
//     computed from: a lookup under a newer generation is a miss, and the
//     next store under the newer generation drops the shard wholesale, so
//     a value that slips in under an old stamp is never served. Reset
//     only releases the memory eagerly.
//
// Soundness caveat: the statistics a value is computed from and the
// generation counter are read at different instants, so a stamp is only
// guaranteed truthful when statistics mutation is externally serialized
// against readers — which the serving tiers provide (corr.Model.Append is
// documented as not safe concurrently with readers; the router takes its
// statistics lock exclusively around it). Callers that fill these caches
// additionally re-load the generation after computing and discard on a
// mismatch, which narrows — but, absent that serialization, cannot
// eliminate — the window in which a value derived from post-insert
// statistics could be stored under the pre-insert stamp.
package floatcache

import (
	"sync"
	"sync/atomic"
)

// numShards is the stripe width. Power of two so the hash folds with a
// mask; 32 shards keep worst-case contention low well past the core
// counts this engine targets while costing only a few hundred bytes per
// cache when idle.
const numShards = 32

// Cache is a sharded map[K]float64 with generation-stamped shards.
// The zero value is unusable; construct with New. Safe for concurrent use.
type Cache[K comparable] struct {
	hash   func(K) uint64
	shards [numShards]shard[K]
}

type shard[K comparable] struct {
	mu  sync.RWMutex
	gen uint64
	m   map[K]float64
	// Hit/miss tallies live per shard so concurrent readers of different
	// shards never share a counter cache line; Stats sums them on demand.
	// Misses are exact (a miss precedes an expensive recompute, so one
	// atomic add is noise); hits are sampled — see hitSampleShift.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// hitSampleShift controls hit-count sampling: only keys whose top
// hitSampleShift hash bits are zero (1 in 2^hitSampleShift) bump the hit
// counter, and Stats scales the tally back up. The hit path runs tens of
// thousands of times per query inside MRF scoring, where an atomic
// read-modify-write per call costs double-digit percent of query
// throughput; sampling reduces that to a shift-and-compare on a hash the
// lookup has already computed. The shard index uses the low hash bits,
// so sampling on the top bits stays independent of shard placement.
const hitSampleShift = 5

// New returns a cache distributing keys with the given hash function.
func New[K comparable](hash func(K) uint64) *Cache[K] {
	return &Cache[K]{hash: hash}
}

func (c *Cache[K]) shardFor(key K) *shard[K] {
	return &c.shards[c.hash(key)&(numShards-1)]
}

// Get returns the value stored for key at generation gen. Values stored
// under an older generation are invisible (the shard self-invalidates on
// the next Put instead of being cleared eagerly).
func (c *Cache[K]) Get(gen uint64, key K) (float64, bool) {
	h := c.hash(key)
	sh := &c.shards[h&(numShards-1)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.gen != gen || sh.m == nil {
		sh.misses.Add(1)
		return 0, false
	}
	v, ok := sh.m[key]
	if ok {
		if h>>(64-hitSampleShift) == 0 {
			sh.hits.Add(1)
		}
	} else {
		sh.misses.Add(1)
	}
	return v, ok
}

// Put stores a value computed from generation-gen statistics. A shard
// still holding an older generation is dropped and restamped; a value
// computed against statistics older than the shard's is discarded (it
// lost the race with an invalidation and must not poison the new
// generation).
func (c *Cache[K]) Put(gen uint64, key K, v float64) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.gen > gen {
		return
	}
	if sh.gen < gen || sh.m == nil {
		sh.m = make(map[K]float64)
		sh.gen = gen
	}
	sh.m[key] = v
}

// Reset drops every shard's entries immediately, keeping generation
// stamps. Generation bumps make explicit resets unnecessary for
// correctness; Reset exists to release memory eagerly.
func (c *Cache[K]) Reset() {
	for i := range c.shards {
		c.shards[i].reset()
	}
}

func (sh *shard[K]) reset() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.m = nil
}

// Len returns the total number of live entries (diagnostics only).
func (c *Cache[K]) Len() int {
	total := 0
	for i := range c.shards {
		total += c.shards[i].length()
	}
	return total
}

func (sh *shard[K]) length() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.m)
}

// Stats returns the cumulative hit and miss counts across all shards —
// the observability hook the serving metrics expose. Misses are exact;
// hits are a sampled estimate (1-in-2^hitSampleShift of the key space is
// tallied and scaled back up, see hitSampleShift), so the hit figure is
// statistical: accurate to a few percent once lookups number in the
// thousands, coarse below that. Counts survive generation bumps and
// Reset: they describe the cache's lifetime effectiveness, not its
// current contents.
func (c *Cache[K]) Stats() (hits, misses uint64) {
	for i := range c.shards {
		hits += c.shards[i].hits.Load()
		misses += c.shards[i].misses.Load()
	}
	return hits << hitSampleShift, misses
}

// HashString is the FNV-1a hash of a string key, inlined to avoid the
// per-call allocations of hash/fnv's streaming interface.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// HashUint64 finalizes an integer key with the splitmix64 mixer, so keys
// differing only in high bits still spread across shards.
func HashUint64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
