// Package shard implements the scatter-gather serving subsystem: the
// corpus's postings are partitioned across N independent retrieval engines
// by a deterministic hash of the object ID, while every shard shares the
// one corpus-global correlation model and statistics. Sharding therefore
// changes where candidates are generated and scored, never how: each
// candidate's MRF score is computed from the same global statistics a
// single-shard engine would use, so scatter-gather results are
// byte-identical at any shard count (the determinism test pins this at
// 1/2/4/NumCPU shards, before and after routed inserts, and across a
// snapshot round trip).
//
// Concurrency contract: searches fan out under a corpus-statistics read
// lock plus per-shard read locks; a routed insert takes the statistics
// write lock only for the global mutation (corpus append, statistics
// growth, cache invalidation) and then updates the owning shard's index
// under that shard's lock alone, so an insert blocks searches only for the
// short global phase and the one shard it lands on.
package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"figfusion/internal/corr"
	"figfusion/internal/index"
	"figfusion/internal/media"
	"figfusion/internal/retrieval"
	"figfusion/internal/topk"
)

// Config assembles a Router.
type Config struct {
	// Shards is the number of engine shards; 0 and 1 both mean a single
	// shard (the router then adds no goroutine fan-out per query).
	Shards int
	// Retrieval configures each per-shard engine. Index and SkipIndex must
	// be left zero: the router builds (or loads) one index per shard.
	// Metrics and SlowLog must also be left zero — attach observability
	// through Router.SetMetrics, which also registers the router's own
	// instruments and replaces the per-shard index gauges with
	// corpus-wide aggregates. Workers applies within one shard;
	// sharded deployments usually keep it at 1 and let the shard fan-out
	// supply the parallelism.
	Retrieval retrieval.Config
	// Owns restricts the router to a subset of the corpus — the partition
	// predicate of a multi-node deployment, where each node indexes only
	// the objects the cluster assignment routes to it while every node's
	// statistics still cover the whole corpus (scores are corpus-global).
	// nil owns everything (the single-machine mode). Routed inserts always
	// grow the corpus-global statistics; only owned objects are indexed.
	Owns func(media.ObjectID) bool
}

// ShardOf routes an object ID to its owning shard: a splitmix64-style
// finalizer over the ID, reduced modulo the shard count. The function is a
// pure, seedless mapping — the routing contract persisted snapshots rely
// on — so it must never change for a given (id, shards) pair.
func ShardOf(id media.ObjectID, shards int) int {
	if shards <= 1 {
		return 0
	}
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// shardState is one engine shard: the engine over this shard's postings
// and the lock serializing its index mutation against its reads.
type shardState struct {
	mu      sync.RWMutex
	eng     *retrieval.Engine
	objects int // corpus objects routed to this shard
}

// Router is the scatter-gather front of N engine shards. Construct with
// NewRouter or Load. Safe for concurrent use: searches, health snapshots
// and routed inserts may race freely.
type Router struct {
	model  *corr.Model
	shards []*shardState
	// owns is the partition predicate of a multi-node node (Config.Owns);
	// nil owns the whole corpus.
	owns func(media.ObjectID) bool

	// statsMu guards the corpus-global state (corpus objects, correlation
	// statistics, derived caches) that every search reads throughout
	// scoring: readers hold it shared for a whole scatter-gather, a routed
	// insert holds it exclusively only while growing the statistics.
	statsMu sync.RWMutex
	// insertMu serializes routed inserts end to end. Inserts are inherently
	// sequential (corpus IDs are dense and posting lists append-ordered);
	// serializing them also lets the post-append index update run outside
	// statsMu, where it only ever reads the statistics.
	insertMu sync.Mutex
	// inserts counts routed inserts since construction or load; snapshots
	// stamp it into the manifest alongside the model generation.
	inserts atomic.Uint64
	// metrics is the router-level instrument bundle (zero = off); attach
	// with SetMetrics.
	metrics routerMetrics
}

// NewRouter partitions the model's corpus across cfg.Shards engines,
// building one ownership-filtered clique index per shard over the shared
// corpus-global statistics. Every shard scores against the one model (and
// with it the generation-stamped memos) under the same parameters, so
// per-candidate scores are bit-identical to a single-shard engine's.
func NewRouter(m *corr.Model, cfg Config) (*Router, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	r, counts, err := newRouter(m, cfg, n)
	if err != nil {
		return nil, err
	}
	for s := 0; s < n; s++ {
		s := s
		owns := func(id media.ObjectID) bool { return r.ownsObject(id) && ShardOf(id, n) == s }
		inv := index.BuildOwnedWorkers(m, cfg.Retrieval.BuildOpts, cfg.Retrieval.EnumOpts, cfg.Retrieval.Workers, owns)
		if err := r.attach(s, inv, cfg, counts[s]); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// newRouter is the validated start of every construction path — build,
// Load, LoadSnapshotStream: it rejects the engine settings the router
// manages itself and returns an n-shard router with no engines attached
// yet, plus how many owned objects route to each shard.
func newRouter(m *corr.Model, cfg Config, n int) (*Router, []int, error) {
	if cfg.Retrieval.Index != nil || cfg.Retrieval.SkipIndex {
		return nil, nil, fmt.Errorf("shard: Retrieval.Index/SkipIndex are managed by the router")
	}
	if cfg.Retrieval.Metrics != nil || cfg.Retrieval.SlowLog != nil {
		return nil, nil, fmt.Errorf("shard: attach observability via Router.SetMetrics, not Retrieval.Metrics")
	}
	r := &Router{model: m, shards: make([]*shardState, n), owns: cfg.Owns}
	counts := make([]int, n)
	corpus := m.Stats.Corpus()
	for i := 0; i < corpus.Len(); i++ {
		if id := media.ObjectID(i); r.ownsObject(id) {
			counts[ShardOf(id, n)]++
		}
	}
	return r, counts, nil
}

// FromEngine wraps one prebuilt engine as a one-shard router over the
// engine's own model, scorer and index — how a standalone server gets the
// router's locking, stamped inserts and snapshots without a second serving
// stack. The engine must index the whole corpus; an engine built with
// SkipIndex is a caller bug and panics.
func FromEngine(e *retrieval.Engine) *Router {
	if e.Index == nil {
		panic("shard: FromEngine needs an engine with an index")
	}
	sh := &shardState{eng: e, objects: e.Model.Stats.Corpus().Len()}
	return &Router{model: e.Model, shards: []*shardState{sh}}
}

// ownsObject applies the partition predicate (everything when unset).
func (r *Router) ownsObject(id media.ObjectID) bool {
	return r.owns == nil || r.owns(id)
}

// attach wires shard s around a prebuilt (or loaded) per-shard index.
func (r *Router) attach(s int, inv *index.Inverted, cfg Config, objects int) error {
	engCfg := cfg.Retrieval
	engCfg.Index = inv
	eng, err := retrieval.NewEngine(r.model, engCfg)
	if err != nil {
		return fmt.Errorf("shard %d: %w", s, err)
	}
	r.shards[s] = &shardState{eng: eng, objects: objects}
	return nil
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Model returns the shared corpus-global correlation model. Reads of the
// corpus it serves must be pinned with View when inserts may race.
func (r *Router) Model() *corr.Model { return r.model }

// Generation returns the shared model's statistics generation — the stamp
// routed inserts advance and snapshots record.
func (r *Router) Generation() uint64 { return r.model.Generation() }

// Inserts returns the number of routed inserts since construction or load.
func (r *Router) Inserts() uint64 { return r.inserts.Load() }

// View runs fn while the corpus-global state is pinned against routed
// inserts — the hook HTTP handlers use to format corpus objects outside a
// search. fn must not call the router's own search or insert methods
// (recursive read-locking deadlocks once a writer queues).
func (r *Router) View(fn func()) {
	r.statsMu.RLock()
	defer r.statsMu.RUnlock()
	fn()
}

// Search scatter-gathers the indexed MRF search: every shard returns its
// local top-k and the partial lists fold under topk.MergeRanked's total
// order. Shard partitions are disjoint, so the merged list is exactly the
// single-engine top-k, byte for byte. The query-side work — FIG build,
// clique enumeration, MRF compile — is prepared once and shared by every
// shard; only candidate lookup and scoring are per-shard.
func (r *Router) Search(q *media.Object, k int, exclude media.ObjectID) []topk.Item {
	out, _ := r.SearchContext(context.Background(), q, k, exclude)
	return out
}

// SearchContext is Search under a context: each shard's scoring honours
// cancellation between stripes (see retrieval.Engine.SearchContext), and a
// done context aborts the scatter with ctx.Err(). With an undone context
// the results are byte-identical to Search.
func (r *Router) SearchContext(ctx context.Context, q *media.Object, k int, exclude media.ObjectID) ([]topk.Item, error) {
	out, _, err := r.Query(ctx, q, k, exclude, false)
	return out, err
}

// SearchTA is the scatter-gather form of the literal Algorithm 1 path:
// each shard runs the Threshold Algorithm over its own per-clique lists
// (every posting of an object lives on its owning shard, so per-shard
// aggregates are exact), and the exact per-shard top-k lists merge to the
// exact global top-k.
func (r *Router) SearchTA(q *media.Object, k int, exclude media.ObjectID) []topk.Item {
	out, _ := r.SearchTAContext(context.Background(), q, k, exclude)
	return out
}

// SearchTAContext is SearchTA under a context, with SearchContext's
// cancellation contract.
func (r *Router) SearchTAContext(ctx context.Context, q *media.Object, k int, exclude media.ObjectID) ([]topk.Item, error) {
	out, _, err := r.Query(ctx, q, k, exclude, true)
	return out, err
}

// Query is the one search entry point: ta selects the Algorithm 1
// threshold path over the full-scoring one. The query is prepared once —
// on shard 0's engine, under that shard's read lock, because Prepare reads
// the Eq. 9 weights its index stores — and searched on every shard; any
// shard error (only cancellation today) aborts the merge. The bool is the
// serving tiers' shared degraded-answer flag, which a router never sets:
// every shard is in this process, so it answers whole or not at all.
func (r *Router) Query(ctx context.Context, q *media.Object, k int, exclude media.ObjectID, ta bool) ([]topk.Item, bool, error) {
	r.statsMu.RLock()
	defer r.statsMu.RUnlock()
	start := time.Now()
	p := r.shards[0].prepare(q)
	r.metrics.prepare.Observe(time.Since(start))
	r.metrics.searches.Inc()
	legs := r.metrics.legs.Scatter(len(r.shards), runtime.GOMAXPROCS(0) > 1, func(i int) ([]topk.Item, error) {
		return r.shards[i].search(ctx, p, k, exclude, ta)
	})
	for _, l := range legs {
		if l.Err != nil {
			return nil, false, l.Err
		}
	}
	return MergeLegs(legs, k), false, nil
}

func (sh *shardState) prepare(q *media.Object) *retrieval.PreparedQuery {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.eng.Prepare(q)
}

func (sh *shardState) search(ctx context.Context, p *retrieval.PreparedQuery, k int, exclude media.ObjectID, ta bool) ([]topk.Item, error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if ta {
		return sh.eng.SearchTAPreparedContext(ctx, p, k, exclude)
	}
	return sh.eng.SearchPreparedContext(ctx, p, k, exclude)
}

// Insert routes one new object: the shared corpus and statistics grow
// under the exclusive statistics lock (with cache invalidation advancing
// the model generation, which stamps every downstream cache stale), then
// the object's cliques join the owning shard's index under that shard's
// lock alone. Concurrent searches observe either the pre-insert corpus or
// the post-insert one; between the two phases a search may see the grown
// statistics before the new object is indexed, which only delays the
// object's retrievability, never corrupts a score.
func (r *Router) Insert(feats []media.Feature, counts []int, month int) (*media.Object, error) {
	return r.InsertContext(context.Background(), feats, counts, month, -1)
}

// PreconditionError reports a stamped insert (InsertContext) that found the
// corpus at a different size than the stamp demanded — the divergence
// signal of multi-node routed ingestion: a node that missed an insert
// answers every later stamped insert with this error instead of silently
// assigning the wrong object ID.
type PreconditionError struct {
	Objects int // corpus length found
	Expect  int // corpus length the stamp demanded
}

func (e *PreconditionError) Error() string {
	return fmt.Sprintf("shard: insert precondition failed: corpus holds %d objects but the insert was stamped for %d — node state has diverged", e.Objects, e.Expect)
}

// InsertContext is Insert with a generation stamp: when expect >= 0 the insert
// only applies if the corpus currently holds exactly expect objects (so
// the new object's ID is expect), else it fails with *PreconditionError
// and mutates nothing. A multi-node router stamps every replicated insert
// with its own pre-insert corpus length; a node whose corpus drifted —
// it missed an insert, or received one this router never saw — surfaces
// immediately instead of diverging further. Objects outside the partition
// predicate (Config.Owns) grow the statistics but are not indexed here;
// their postings live on the owning node. The context is the serving
// tiers' shared insert signature; a local insert waits on no peer, so it
// runs to completion regardless.
func (r *Router) InsertContext(_ context.Context, feats []media.Feature, counts []int, month int, expect int) (*media.Object, error) {
	r.insertMu.Lock()
	defer r.insertMu.Unlock()
	if expect >= 0 {
		if got := r.corpusLen(); got != expect {
			return nil, &PreconditionError{Objects: got, Expect: expect}
		}
	}
	o, err := r.appendObject(feats, counts, month)
	if err != nil {
		return nil, err
	}
	if r.ownsObject(o.ID) {
		owner := ShardOf(o.ID, len(r.shards))
		if err := r.shards[owner].indexObject(o); err != nil {
			return nil, err
		}
		r.metrics.recordInsert(owner)
	}
	r.inserts.Add(1)
	return o, nil
}

// appendObject performs the corpus-global phase of a routed insert under
// the exclusive statistics lock.
func (r *Router) appendObject(feats []media.Feature, counts []int, month int) (*media.Object, error) {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.model.Append(feats, counts, month)
}

// indexObject adds one appended object's cliques to this shard's index.
// It runs outside the statistics lock — FIG construction and CorS
// weighting only read the statistics, and the insert lock keeps any other
// mutation out — so concurrent searches block only on this one shard.
func (sh *shardState) indexObject(o *media.Object) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.eng.IndexObject(o); err != nil {
		return err
	}
	sh.objects++
	return nil
}

// ShardInfo is one shard's health snapshot.
type ShardInfo struct {
	Shard    int `json:"shard"`
	Objects  int `json:"objects"`
	Cliques  int `json:"cliques"`
	Postings int `json:"postings"`
}

// ShardInfos snapshots every shard's object, clique and posting counts —
// the per-shard stats the server's /healthz reports.
func (r *Router) ShardInfos() []ShardInfo {
	infos := make([]ShardInfo, len(r.shards))
	for i, sh := range r.shards {
		infos[i] = sh.info(i)
	}
	return infos
}

// HealthFields are the fields this tier adds to /v1/healthz: the summed
// clique count, the per-shard stats and the statistics generation. Safe
// under View: per-shard locks nest under the statistics read lock (an
// insert never holds a shard lock while waiting on the statistics lock).
func (r *Router) HealthFields() map[string]interface{} {
	infos := r.ShardInfos()
	cliques := 0
	for _, si := range infos {
		cliques += si.Cliques
	}
	return map[string]interface{}{"cliques": cliques, "shards": infos, "generation": r.Generation()}
}

func (sh *shardState) info(i int) ShardInfo {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return ShardInfo{
		Shard:    i,
		Objects:  sh.objects,
		Cliques:  sh.eng.Index.NumCliques(),
		Postings: sh.eng.Index.Postings(),
	}
}
