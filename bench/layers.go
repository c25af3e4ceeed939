package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"figfusion/internal/api"
	"figfusion/internal/cluster"
	"figfusion/internal/corr"
	"figfusion/internal/dataset"
	"figfusion/internal/fig"
	"figfusion/internal/index"
	"figfusion/internal/media"
	"figfusion/internal/mrf"
	"figfusion/internal/recommend"
	"figfusion/internal/retrieval"
	"figfusion/internal/topk"
)

const (
	layerQueries       = 100 // timed queries the layer pass replays
	layerSearchQueries = 40  // of which the slow indexed search path runs this many
	layerCandidates    = 256 // candidates scored per query for mrf.score_ns_per_candidate
	layerInserts       = 20
	layerHistories     = 8 // recommendation histories, of layerHistoryLen objects each
	layerHistoryLen    = 5
)

// layerReads picks the layer pass's queries: the first timed reads.
func layerReads(pl *plan) []op {
	var out []op
	for _, ph := range pl.Phases {
		if !ph.Latency {
			continue
		}
		for _, o := range ph.Ops {
			if o.Kind != opInsert && len(out) < layerQueries {
				out = append(out, o)
			}
		}
	}
	return out
}

func usPer(d time.Duration, n int) float64 { return float64(d) / 1e3 / float64(n) }
func msPer(d time.Duration, n int) float64 { return float64(d) / 1e6 / float64(n) }

// layerPass times the public functions of each layer, serially, over a
// twin engine: its own corpus copy and the run's first timed queries.
// Every call runs inside a span of the benchmark's own; the metrics are
// the spans' mean durations. Serial and in-process, these are the costs
// of the steps themselves — the served run adds contention and the wire.
func layerPass(t *tracer, d *dataset.Dataset, pl *plan, tmp string, out map[string]float64) error {
	var m *corr.Model
	out["corr.train_thresholds_ms"] = msPer(t.timed("corr.TrainThresholds", 0, func() { m = trainedModel(d) }), 1)
	var inv *index.Inverted
	out["index.build_ms"] = msPer(t.timed("index.BuildWorkers", 0, func() {
		inv = index.BuildWorkers(m, fig.Options{}, fig.EnumerateOptions{}, 0)
	}), 1)
	eng, err := retrieval.NewEngine(m, retrieval.Config{Index: inv, Pruning: retrieval.PruneBlockMax})
	if err != nil {
		return err
	}

	// Snapshot round trip through a scratch file, as figdata -index writes
	// it and figserver -index reads it.
	path := filepath.Join(tmp, "twin.idx")
	var ioErr error
	out["index.save_ms"] = msPer(t.timed("index.Save", 0, func() { ioErr = saveIndex(inv, path) }), 1)
	if ioErr != nil {
		return ioErr
	}
	var loaded *index.Inverted
	out["index.load_ms"] = msPer(t.timed("index.LoadWorkers", 0, func() { loaded, ioErr = loadIndex(path) }), 1)
	if ioErr != nil {
		return ioErr
	}

	corpus := d.Corpus
	reads := layerReads(pl)
	var build, enum, lookup, compile, score, prepare, ta, search, encode, decode, resolve time.Duration
	var cliqueCount, keyCount, searched int
	var sink float64
	for i, o := range reads {
		q := corpus.Object(media.ObjectID(o.Query))
		var g *fig.Graph
		build += t.timed("fig.Build", i, func() { g = fig.Build(q, m, fig.Options{}) })
		var cliques []fig.Clique
		enum += t.timed("fig.Cliques", i, func() { cliques = g.Cliques(fig.EnumerateOptions{}) })
		cliqueCount += len(cliques)

		keys := make([]string, len(cliques))
		weights := make([]float64, len(cliques))
		for j, c := range cliques {
			keys[j] = c.Key()
			weights[j] = eng.Scorer.CorS(c)
		}
		keyCount += len(keys)
		lookup += t.timed("index.LookupKey", i, func() {
			for _, k := range keys {
				inv.LookupKey(k)
			}
		})
		var cs *mrf.CliqueSet
		compile += t.timed("mrf.Compile", i, func() { cs = eng.Scorer.Compile(cliques, weights) })
		sc := cs.NewScratch()
		score += t.timed("mrf.ScoreScratch", i, func() {
			for j := 0; j < layerCandidates; j++ {
				sink += cs.ScoreScratch(sc, corpus.Object(media.ObjectID(j)))
			}
		})

		var p *retrieval.PreparedQuery
		prepare += t.timed("retrieval.Prepare", i, func() { p = eng.Prepare(q) })
		var items []topk.Item
		ta += t.timed("retrieval.SearchTAPrepared", i, func() { items = eng.SearchTAPrepared(p, topK, q.ID) })
		if i < layerSearchQueries {
			search += t.timed("retrieval.SearchPrepared", i, func() { eng.SearchPrepared(p, topK, q.ID) })
			searched++
		}

		// The wire work of one op: both bodies encoded, both decoded, the
		// query resolved against the corpus.
		req := o.request()
		resp := api.WireSearchResponse{Results: make([]api.Item, len(items))}
		for j, it := range items {
			resp.Results[j] = api.Item{ID: int64(it.ID), Score: it.Score}
		}
		var reqJSON, respJSON []byte
		encode += t.timed("api.encode", i, func() {
			reqJSON, _ = json.Marshal(req)   // plain structs: cannot fail
			respJSON, _ = json.Marshal(resp) // likewise
		})
		decode += t.timed("api.decode", i, func() {
			var r api.SearchRequest
			var w api.WireSearchResponse
			_ = json.Unmarshal(reqJSON, &r)  // bytes just marshalled: cannot fail
			_ = json.Unmarshal(respJSON, &w) // likewise
		})
		resolve += t.timed("api.ResolveQuery", i, func() { _, ioErr = api.ResolveQuery(corpus, req) })
		if ioErr != nil {
			return ioErr
		}
	}
	n := len(reads)
	runtime.KeepAlive(sink)
	if n == 0 {
		return fmt.Errorf("layer pass: no timed reads to replay")
	}
	out["fig.build_us"] = usPer(build, n)
	out["fig.enumerate_us"] = usPer(enum, n)
	out["fig.cliques_per_query"] = float64(cliqueCount) / float64(n)
	out["index.lookup_ns"] = float64(lookup) / float64(keyCount)
	out["mrf.compile_us"] = usPer(compile, n)
	out["mrf.score_ns_per_candidate"] = float64(score) / float64(n*layerCandidates)
	out["retrieval.prepare_ms"] = msPer(prepare, n)
	out["retrieval.ta_ms"] = msPer(ta, n)
	out["retrieval.search_ms"] = msPer(search, searched)
	out["api.encode_us"] = usPer(encode, n)
	out["api.decode_us"] = usPer(decode, n)
	out["api.resolve_query_us"] = usPer(resolve, n)

	rec, err := recommend.New(m, recommend.Config{Temporal: true})
	if err != nil {
		return err
	}
	var recommended time.Duration
	histories := 0
	for h := 0; h < layerHistories && (h+1)*layerHistoryLen <= n; h++ {
		history := make([]*media.Object, layerHistoryLen)
		inHistory := make(map[media.ObjectID]bool, layerHistoryLen)
		for j := range history {
			history[j] = corpus.Object(media.ObjectID(reads[h*layerHistoryLen+j].Query))
			inHistory[history[j].ID] = true
		}
		candidates := make([]media.ObjectID, 0, corpus.Len())
		for id := 0; id < corpus.Len(); id++ {
			if !inHistory[media.ObjectID(id)] {
				candidates = append(candidates, media.ObjectID(id))
			}
		}
		recommended += t.timed("recommend.Recommend", h, func() { rec.Recommend(history, candidates, topK, d.Config.Months) })
		histories++
	}
	if histories > 0 {
		out["recommend.recommend_ms"] = msPer(recommended, histories)
	}

	// Inserts last: each drops the caches the passes above filled. The
	// engine's insert is timed whole; the index's share of it is timed on
	// the loaded copy, which has not seen the object yet.
	var inserted, indexed time.Duration
	sources := pl.Sources
	if len(sources) > layerInserts {
		sources = sources[:layerInserts]
	}
	for i, src := range sources {
		feats, counts, err := api.DecodeFeatures(insertRequest(d, src).Features)
		if err != nil {
			return err
		}
		var o *media.Object
		inserted += t.timed("retrieval.Insert", i, func() { o, ioErr = eng.Insert(feats, counts, corpus.Object(media.ObjectID(src)).Month) })
		if ioErr != nil {
			return ioErr
		}
		cliques := eng.QueryCliques(o)
		indexed += t.timed("index.Insert", i, func() { ioErr = loaded.Insert(o.ID, cliques, m) })
		if ioErr != nil {
			return ioErr
		}
	}
	if len(sources) > 0 {
		out["retrieval.insert_ms"] = msPer(inserted, len(sources))
		out["index.insert_us"] = usPer(indexed, len(sources))
	}
	return nil
}

func saveIndex(inv *index.Inverted, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := inv.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadIndex(path string) (*index.Inverted, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return index.LoadWorkers(f, 0)
}

// fleetLayerPass times the cluster layer on a booted fleet: the timed
// reads through the cluster over its loopback-HTTP backends, the same
// reads through a cluster over LocalBackends on the same node routers —
// the difference is the wire tax — and the fold of the nodes' lists.
func fleetLayerPass(ctx context.Context, t *tracer, in *instance, pl *plan, out map[string]float64) error {
	nodes := make([]cluster.NodeConfig, len(in.routers))
	backends := make([]*cluster.LocalBackend, len(in.routers))
	for i, r := range in.routers {
		backends[i] = cluster.NewLocalBackend(r)
		nodes[i] = cluster.NodeConfig{Name: fleetNodes[i], Backend: backends[i]}
	}
	mirror := in.cluster.Model()
	local, err := cluster.New(cluster.Config{Mirror: mirror, Nodes: nodes})
	if err != nil {
		return err
	}
	search := func(c *cluster.Cluster, o op, q *media.Object) error {
		var res cluster.Result
		var err error
		if o.Kind == opTA {
			res, err = c.SearchTAContext(ctx, q, topK, q.ID)
		} else {
			res, err = c.SearchContext(ctx, q, topK, q.ID)
		}
		if err == nil && res.Partial {
			err = fmt.Errorf("layer pass: %s answered partially", o)
		}
		return err
	}
	reads := layerReads(pl)
	var overHTTP, overLocal, merge time.Duration
	var callErr error
	for i, o := range reads {
		q := mirror.Stats.Corpus().Object(media.ObjectID(o.Query))
		overHTTP += t.timed("cluster.Search/http", i, func() { callErr = search(in.cluster, o, q) })
		if callErr != nil {
			return callErr
		}
		overLocal += t.timed("cluster.Search/local", i, func() { callErr = search(local, o, q) })
		if callErr != nil {
			return callErr
		}
		lists := make([][]topk.Item, len(backends))
		for j, b := range backends {
			if lists[j], err = b.Search(ctx, o.request()); err != nil {
				return err
			}
		}
		merge += t.timed("topk.MergeRanked", i, func() { topk.MergeRanked(lists, topK) })
	}
	if n := len(reads); n > 0 {
		out["cluster.http_search_ms"] = msPer(overHTTP, n)
		out["cluster.local_search_ms"] = msPer(overLocal, n)
		out["cluster.wire_tax_ms"] = msPer(overHTTP-overLocal, n)
		out["topk.merge_us"] = usPer(merge, n)
	}
	return nil
}
