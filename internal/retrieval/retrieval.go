// Package retrieval implements the social media retrieval engine of
// Sections 3.3–3.5. A query object is converted to its Feature Interaction
// Graph, the graph's cliques are extracted and compiled (mrf.CliqueSet),
// and candidates are ranked by the MRF similarity score. The search paths
// differ only in where the candidates come from and what scores them:
//
//   - Search — Section 3.5: the union of the query cliques' posting lists
//     is the candidate set and every candidate receives the full Eq. 6
//     score. Objects sharing no clique with the query are pruned, which is
//     the index's (paper-prescribed) approximation.
//   - SearchTA — Algorithm 1: each query clique's posting list is scored by
//     that clique's potential alone and the ranked lists are merged with
//     the Threshold Algorithm (block-max pruned on the serving binaries).
//   - SearchScan / SearchAmong — the sequential comparison of Section 3.5's
//     first stage: full scores for every database object (or a given
//     candidate set), the exactness reference and the no-index ablation.
//
// All of them rank through mrf.CliqueSet.Rank, the one scoring loop.
package retrieval

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"figfusion/internal/corr"
	"figfusion/internal/fig"
	"figfusion/internal/index"
	"figfusion/internal/media"
	"figfusion/internal/mrf"
	"figfusion/internal/obs"
	"figfusion/internal/topk"
)

// NoExclude disables query-object exclusion in Search calls.
const NoExclude = media.ObjectID(-1)

// Config assembles an Engine.
type Config struct {
	// Params are the MRF parameters; zero value means mrf.DefaultParams.
	Params mrf.Params
	// BuildOpts configure FIG construction for both indexing and queries.
	BuildOpts fig.Options
	// EnumOpts configure clique enumeration for both indexing and queries.
	EnumOpts fig.EnumerateOptions
	// SkipIndex suppresses inverted-index construction; Search then
	// falls back to SearchScan. Used by scan-only ablations.
	SkipIndex bool
	// Index, when non-nil, is used instead of building one — e.g. an
	// index persisted by a previous run. It must have been built over the
	// same corpus (FID and ObjectID spaces) with the same Build/Enum
	// options.
	Index *index.Inverted
	// Workers bounds the scoring fan-out of one query (Search, SearchTA,
	// SearchMergeFull and SearchScan stripe their candidate scoring over
	// this many goroutines) and of the index build (FIG construction and
	// entry weighting); 0 means runtime.NumCPU(). Results are
	// deterministic at any worker count — partial top-k lists merge under
	// the total order of topk.Less, and the build's parallel stages write
	// disjoint slots with order-stable reductions.
	Workers int
	// Metrics, when non-nil, attaches per-query observability: stage
	// latency histograms, path counters, candidate volume, and cache
	// hit/miss gauges, all registered by name (see metrics.go). Nil — the
	// default — is the no-op mode: searches pay only an untaken branch.
	Metrics *obs.Registry
	// SlowLog, when non-nil (and Metrics is set), receives finished query
	// traces that crossed its threshold.
	SlowLog *obs.SlowLog
	// Pruning selects how SearchTA merges posting lists (see PruningMode).
	// The zero value is PruneOff, the eager reference; the serving binaries
	// run PruneBlockMax, which returns the same bytes while scoring fewer
	// postings.
	Pruning PruningMode
}

// Engine is a retrieval engine over one corpus. Safe for concurrent
// searches once constructed.
type Engine struct {
	Model  *corr.Model
	Scorer *mrf.Scorer
	Index  *index.Inverted

	buildOpts fig.Options
	enumOpts  fig.EnumerateOptions
	workers   int
	pruning   PruningMode
	metrics   *queryMetrics // nil = no-op instrumentation
}

// NewEngine trains nothing by itself: it wires the correlation model,
// scorer and (unless skipped) the clique inverted index.
func NewEngine(m *corr.Model, cfg Config) (*Engine, error) {
	params := cfg.Params
	if len(params.Lambda) == 0 {
		params = mrf.DefaultParams()
	}
	scorer, err := mrf.NewScorer(m, params)
	if err != nil {
		return nil, fmt.Errorf("retrieval: %w", err)
	}
	e := &Engine{
		Model:     m,
		Scorer:    scorer,
		buildOpts: cfg.BuildOpts,
		enumOpts:  cfg.EnumOpts,
		workers:   cfg.Workers,
		pruning:   cfg.Pruning,
	}
	switch {
	case cfg.Index != nil:
		e.Index = cfg.Index
	case !cfg.SkipIndex:
		e.Index = index.BuildWorkers(m, cfg.BuildOpts, cfg.EnumOpts, cfg.Workers)
	}
	e.SetMetrics(cfg.Metrics, cfg.SlowLog)
	return e, nil
}

// WithParams returns an engine sharing this engine's model and inverted
// index but scoring with different MRF parameters. Nothing the index or
// the model memoises depends on Λ, so parameter training sweeps candidates
// without rebuilding or refilling either.
func (e *Engine) WithParams(params mrf.Params) (*Engine, error) {
	scorer, err := mrf.NewScorer(e.Model, params)
	if err != nil {
		return nil, fmt.Errorf("retrieval: %w", err)
	}
	clone := *e
	clone.Scorer = scorer
	return &clone, nil
}

// QueryCliques converts a query object to its FIG clique set (Algorithm 1,
// lines 4–5).
func (e *Engine) QueryCliques(q *media.Object) []fig.Clique {
	g := fig.Build(q, e.Model, e.buildOpts)
	return g.Cliques(e.enumOpts)
}

// Search returns the top-k objects most similar to the query. Following
// Section 3.5 ("we find the objects from the database which share some same
// cliques as the query object, and compute the similarity score"), the
// inverted index generates the candidate set — the union of the query
// cliques' posting lists — and each candidate receives the full MRF score.
// Objects sharing no clique with the query are pruned, which is the
// index's (paper-prescribed) approximation. exclude removes one object
// (normally the query itself, when it comes from the corpus) from the
// results; pass NoExclude to keep everything.
func (e *Engine) Search(q *media.Object, k int, exclude media.ObjectID) []topk.Item {
	// context.Background is never cancelled, so the context path adds no
	// cancellation checks (done channel is nil) and cannot return an error.
	out, _ := e.SearchContext(context.Background(), q, k, exclude)
	return out
}

// SearchContext is Search under a context: cancellation and deadline are
// honoured inside the ranking loop (see mrf.CliqueSet.Rank), returning
// ctx.Err() with no results once the context is done.
// With an undone context the results are byte-identical to Search.
func (e *Engine) SearchContext(ctx context.Context, q *media.Object, k int, exclude media.ObjectID) ([]topk.Item, error) {
	if e.Index == nil {
		return e.SearchScanContext(ctx, q, k, exclude)
	}
	return e.SearchPreparedContext(ctx, e.Prepare(q), k, exclude)
}

// PreparedQuery is a query compiled once and searched many times: the FIG
// clique enumeration and the MRF compile — the per-query work that does
// not depend on which index is searched — are hoisted out so a
// scatter-gather router pays them once per query instead of once per
// shard. Prepare and the Prepared searches are read-only on engine and
// model; a Prepared query is invalidated by any corpus mutation (its
// compiled weights are generation-stamped at prepare time).
type PreparedQuery struct {
	query *media.Object
	keys  []string // index keys, precomputed so shard lookups do not re-encode
	cs    *mrf.CliqueSet

	// elapsed is what Prepare took. The first instrumented search to run
	// the query books it (spanBooked flips once), so the prepare stage is
	// recorded once per query however many shards search it.
	elapsed    time.Duration
	spanBooked atomic.Bool
}

// Prepare compiles a query for the Prepared searches — the query side of
// every indexed search, Search and SearchTA included. The Eq. 9 clique
// weights come from this engine's index where the clique is indexed and
// its stored weight is current (see cliqueWeight), so on a sharded
// deployment the caller must hold this engine's index against inserts for
// the duration of the call.
func (e *Engine) Prepare(q *media.Object) *PreparedQuery {
	start := time.Now()
	cliques := e.QueryCliques(q)
	keys := make([]string, len(cliques))
	for i, c := range cliques {
		keys[i] = c.Key()
	}
	var weights []float64
	if e.Scorer.Params.UseCorS {
		gen := e.Model.Generation()
		weights = make([]float64, len(cliques))
		for i, c := range cliques {
			weights[i] = e.cliqueWeight(c, keys[i], gen)
		}
	}
	p := &PreparedQuery{query: q, keys: keys, cs: e.Scorer.Compile(cliques, weights)}
	p.elapsed = time.Since(start)
	return p
}

// cliqueWeight resolves one query clique's Eq. 9 weight at the given
// statistics generation: the index-stored value when the clique is indexed
// here and the value is current, the model's (generation-stamped) memo
// otherwise — for unindexed cliques, and for indexed ones whose stored
// weight predates the current generation (after an Insert, entries the
// insert did not touch hold weights of the pre-insert corpus; serving
// those would make the indexed paths diverge from SearchScan). Both
// sources compute corr.Stats.CliqueWeight, so which one serves is
// unobservable in scores; the index is preferred because a query's cliques
// are rarely in the memo and always cost a statistics pass there.
func (e *Engine) cliqueWeight(c fig.Clique, key string, gen uint64) float64 {
	if e.Index != nil {
		if entry, ok := e.Index.LookupKey(key); ok {
			if w, ok := entry.CorSAt(gen); ok {
				return w
			}
		}
	}
	return e.Model.CliqueWeight(key, c.Feats)
}

// beginPrepared opens the trace of one prepared search. The first search
// to run p books p's prepare span into its trace — stage and total both.
func (e *Engine) beginPrepared(path string, p *PreparedQuery) *obs.QueryTrace {
	tr := e.metrics.begin(path)
	if tr != nil && p.spanBooked.CompareAndSwap(false, true) {
		tr.Add(obs.StagePrepare, p.elapsed)
	}
	return tr
}

// SearchPrepared is Search with the query-side work already done: only the
// candidate lookup against this engine's index and the candidate scoring
// remain. Results are byte-identical to Search on the same engine.
func (e *Engine) SearchPrepared(p *PreparedQuery, k int, exclude media.ObjectID) []topk.Item {
	out, _ := e.SearchPreparedContext(context.Background(), p, k, exclude)
	return out
}

// SearchPreparedContext is SearchPrepared under a context — the one body
// of the indexed search: gather the query cliques' posting lists from this
// engine's index, give every candidate the full MRF score, keep the top k.
func (e *Engine) SearchPreparedContext(ctx context.Context, p *PreparedQuery, k int, exclude media.ObjectID) ([]topk.Item, error) {
	if e.Index == nil {
		return e.SearchScanContext(ctx, p.query, k, exclude)
	}
	tr := e.beginPrepared(obs.PathIndex, p)
	acc := getAccum()
	defer putAccum(acc)
	st := tr.Begin()
	acc.lookupKeys(e.Index, p.keys)
	candidates := acc.merge(exclude)
	tr.End(obs.StageGather, st)
	tr.SetCandidates(len(candidates))
	out, err := p.cs.Rank(ctx, candidates, k, e.workers, tr)
	e.metrics.finish(tr)
	return out, err
}

// SearchTAPrepared is SearchTA with the query-side work already done.
func (e *Engine) SearchTAPrepared(p *PreparedQuery, k int, exclude media.ObjectID) []topk.Item {
	out, _ := e.SearchTAPreparedContext(context.Background(), p, k, exclude)
	return out
}

// SearchTAPreparedContext is SearchTAPrepared under a context — the one
// body of the Algorithm 1 threshold search. Cancellation follows the
// SearchContext contract: on a done context the partial lists are
// discarded and ctx.Err() comes back.
func (e *Engine) SearchTAPreparedContext(ctx context.Context, p *PreparedQuery, k int, exclude media.ObjectID) ([]topk.Item, error) {
	if e.Index == nil {
		return e.SearchScanContext(ctx, p.query, k, exclude)
	}
	tr := e.beginPrepared(obs.PathTA, p)
	acc := getAccum()
	defer putAccum(acc)
	st := tr.Begin()
	acc.lookupKeys(e.Index, p.keys)
	tr.End(obs.StageGather, st)
	if e.pruning != PruneOff {
		// Block-max path: byte-identical results, lazily materialised
		// blocks. Scoring and merging interleave, so both accrue to
		// StageScore.
		st = tr.Begin()
		out, err := e.searchTALazy(ctx, p.cs, acc.entries, exclude, k, tr)
		tr.End(obs.StageScore, st)
		e.metrics.finish(tr)
		return out, err
	}
	st = tr.Begin()
	lists, err := e.cliqueLists(ctx, p.cs, acc.entries, exclude)
	tr.End(obs.StageScore, st)
	if err != nil {
		e.metrics.finish(tr)
		return nil, err
	}
	st = tr.Begin()
	out := topk.ThresholdMerge(lists, k)
	tr.End(obs.StageMerge, st)
	e.metrics.finish(tr)
	return out, nil
}

// SearchTA is the literal Algorithm 1 variant: every query clique's posting
// list becomes a ranked candidate list scored by that clique's potential
// alone, and the lists are merged with the Threshold Algorithm. It trades
// the cross-clique smoothing mass of Search for cheaper scoring; the
// ablation benchmarks compare the two.
func (e *Engine) SearchTA(q *media.Object, k int, exclude media.ObjectID) []topk.Item {
	out, _ := e.SearchTAContext(context.Background(), q, k, exclude)
	return out
}

// SearchTAContext is SearchTA under a context, with the same cancellation
// contract as SearchContext: checked while the per-clique lists build,
// partial work discarded on cancellation.
func (e *Engine) SearchTAContext(ctx context.Context, q *media.Object, k int, exclude media.ObjectID) ([]topk.Item, error) {
	if e.Index == nil {
		return e.SearchScanContext(ctx, q, k, exclude)
	}
	return e.SearchTAPreparedContext(ctx, e.Prepare(q), k, exclude)
}

// cliqueLists ranks each indexed query clique's posting list by that
// clique's potential alone — Algorithm 1's per-list scores, best-first as
// TA requires. Lists come back in clique order (the order ThresholdMerge
// visits them, which matters at exact score ties); cliques without an
// index entry are skipped.
func (e *Engine) cliqueLists(ctx context.Context, cs *mrf.CliqueSet, entries []*index.Entry, exclude media.ObjectID) ([][]topk.Item, error) {
	lists := make([][]topk.Item, 0, len(entries))
	for i, entry := range entries {
		if entry == nil {
			continue
		}
		list, err := cs.RankClique(ctx, i, without(entry.Objects, exclude), e.workers)
		if err != nil {
			return nil, err
		}
		lists = append(lists, list)
	}
	return lists, nil
}

// without returns the sorted posting list minus exclude — the list itself
// when exclude is not on it.
func without(postings []media.ObjectID, exclude media.ObjectID) []media.ObjectID {
	i := sort.Search(len(postings), func(i int) bool { return postings[i] >= exclude })
	if i == len(postings) || postings[i] != exclude {
		return postings
	}
	out := make([]media.ObjectID, 0, len(postings)-1)
	return append(append(out, postings[:i]...), postings[i+1:]...)
}

// SearchScan ranks every database object by the full MRF score — the
// sequential comparison path. Scoring fans out across CPUs; results are
// deterministic (ties break by object ID).
func (e *Engine) SearchScan(q *media.Object, k int, exclude media.ObjectID) []topk.Item {
	out, _ := e.SearchScanContext(context.Background(), q, k, exclude)
	return out
}

// SearchScanContext is SearchScan under a context, with the same
// cancellation contract as SearchContext: SearchAmong over every object
// but exclude.
func (e *Engine) SearchScanContext(ctx context.Context, q *media.Object, k int, exclude media.ObjectID) ([]topk.Item, error) {
	n := e.Model.Stats.Corpus().Len()
	candidates := make([]media.ObjectID, 0, n)
	for id := media.ObjectID(0); int(id) < n; id++ {
		if id != exclude {
			candidates = append(candidates, id)
		}
	}
	return e.SearchAmongContext(ctx, q, candidates, k)
}

// SearchAmong ranks only the given candidates by the full MRF score — the
// scan restricted to a candidate set (the recommendation-style evaluation).
func (e *Engine) SearchAmong(q *media.Object, candidates []media.ObjectID, k int) []topk.Item {
	out, _ := e.SearchAmongContext(context.Background(), q, candidates, k)
	return out
}

// SearchAmongContext is SearchAmong under a context — the one body of the
// index-less search.
func (e *Engine) SearchAmongContext(ctx context.Context, q *media.Object, candidates []media.ObjectID, k int) ([]topk.Item, error) {
	tr := e.metrics.begin(obs.PathScan)
	st := tr.Begin()
	// The scan path is the exactness reference: weights come from the
	// model (nil ⇒ computed through its memo), never the index.
	cs := e.Scorer.Compile(e.QueryCliques(q), nil)
	tr.End(obs.StagePrepare, st)
	tr.SetCandidates(len(candidates))
	out, err := cs.Rank(ctx, candidates, k, e.workers, tr)
	e.metrics.finish(tr)
	return out, err
}

// SearchMergeFull is the no-TA ablation of SearchTA: identical per-clique
// candidate lists but an exhaustive merge instead of threshold termination.
func (e *Engine) SearchMergeFull(q *media.Object, k int, exclude media.ObjectID) []topk.Item {
	out, _ := e.SearchMergeFullContext(context.Background(), q, k, exclude)
	return out
}

// SearchMergeFullContext is SearchMergeFull under a context, sharing
// cliqueLists' cancellation behaviour with the TA path.
func (e *Engine) SearchMergeFullContext(ctx context.Context, q *media.Object, k int, exclude media.ObjectID) ([]topk.Item, error) {
	if e.Index == nil {
		return e.SearchScanContext(ctx, q, k, exclude)
	}
	p := e.Prepare(q)
	acc := getAccum()
	defer putAccum(acc)
	acc.lookupKeys(e.Index, p.keys)
	lists, err := e.cliqueLists(ctx, p.cs, acc.entries, exclude)
	if err != nil {
		return nil, err
	}
	return topk.FullMerge(lists, k), nil
}

// Insert ingests one new object into a live engine without a rebuild — the
// growth path of a social media database (the paper cites 2 million new
// Flickr images per day): corr.Model.Append grows corpus and statistics
// and drops what was memoised from them, then the object's cliques are
// added to the inverted index. Trained thresholds and Λ parameters are
// kept; retrain periodically if the corpus distribution drifts. Not safe
// to call concurrently with searches.
func (e *Engine) Insert(feats []media.Feature, counts []int, month int) (*media.Object, error) {
	o, err := e.Model.Append(feats, counts, month)
	if err != nil {
		return nil, err
	}
	if err := e.IndexObject(o); err != nil {
		return nil, err
	}
	return o, nil
}

// IndexObject adds one existing corpus object's cliques to the engine's
// inverted index (a no-op for index-less engines), using the same FIG
// construction and enumeration options as the build, so the object's
// cliques line up with the indexed ones. The corpus statistics must
// already include the object (its CorS weights are computed from them).
// Routed ingestion uses this directly: the shard router appends the
// object to the shared corpus-global statistics once and then indexes it
// on its owning shard alone. Not safe to call concurrently with searches
// on the same engine.
func (e *Engine) IndexObject(o *media.Object) error {
	if e.Index == nil {
		return nil
	}
	g := fig.Build(o, e.Model, e.buildOpts)
	return e.Index.Insert(o.ID, g.Cliques(e.enumOpts), e.Model)
}
