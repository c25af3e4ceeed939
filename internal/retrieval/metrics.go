package retrieval

import (
	"figfusion/internal/obs"
)

// Metric names the engine registers. Per-stage histograms additionally
// carry the obs.Stage suffixes (retrieval.stage.prepare, .gather, .score,
// .merge). All durations are recorded in nanoseconds and snapshot in ms.
const (
	metricSearchTotal      = "retrieval.search.total"
	metricPathPrefix       = "retrieval.search.path." // + index | ta | scan
	metricCandidatesScored = "retrieval.candidates.scored"
	metricSearchLatency    = "retrieval.search.latency"
	metricStagePrefix      = "retrieval.stage." // + prepare | gather | score | merge
	metricPruneBlocks      = "retrieval.prune.blocks.skipped"
)

// queryMetrics is the engine's instrument bundle, resolved once against a
// registry so the hot path records through preallocated instruments with
// no name lookups. A nil *queryMetrics (no registry attached) makes every
// recording call a nil-check no-op — the library-user mode.
type queryMetrics struct {
	searches   *obs.Counter
	pathIndex  *obs.Counter
	pathTA     *obs.Counter
	pathScan   *obs.Counter
	candidates *obs.Counter
	pruneBlk   *obs.Counter
	stages     [obs.NumStages]*obs.Histogram
	latency    *obs.Histogram
	slow       *obs.SlowLog
}

func newQueryMetrics(reg *obs.Registry, slow *obs.SlowLog) *queryMetrics {
	if reg == nil {
		return nil
	}
	m := &queryMetrics{
		searches:   reg.Counter(metricSearchTotal),
		pathIndex:  reg.Counter(metricPathPrefix + obs.PathIndex),
		pathTA:     reg.Counter(metricPathPrefix + obs.PathTA),
		pathScan:   reg.Counter(metricPathPrefix + obs.PathScan),
		candidates: reg.Counter(metricCandidatesScored),
		pruneBlk:   reg.Counter(metricPruneBlocks),
		latency:    reg.Histogram(metricSearchLatency),
		slow:       slow,
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		m.stages[s] = reg.Histogram(metricStagePrefix + s.String())
	}
	return m
}

// begin opens a trace for one query when metrics are attached; the
// returned trace is nil otherwise, and every obs.QueryTrace method is
// nil-safe, so call sites need no second branch.
func (m *queryMetrics) begin(path string) *obs.QueryTrace {
	if m == nil {
		return nil
	}
	return obs.NewTrace(path)
}

// finish stamps and records a finished trace: path and stage instruments,
// total latency, candidate volume, and the slow-query log.
func (m *queryMetrics) finish(tr *obs.QueryTrace) {
	if m == nil || tr == nil {
		return
	}
	tr.Finish()
	m.searches.Inc()
	switch tr.Path {
	case obs.PathIndex:
		m.pathIndex.Inc()
	case obs.PathTA:
		m.pathTA.Inc()
	case obs.PathScan:
		m.pathScan.Inc()
	}
	m.candidates.Add(uint64(tr.Candidates))
	m.pruneBlk.Add(uint64(tr.PruneBlocks))
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if d := tr.Stages[s]; d > 0 {
			m.stages[s].Observe(d)
		}
	}
	m.latency.Observe(tr.Total)
	m.slow.Record(tr)
}

// SetMetrics attaches (or, with a nil registry, detaches) observability to
// the engine: per-query stage instruments plus func gauges exposing the
// hit/miss statistics of the model's CorS and smoothing memos. Not safe to
// call concurrently with searches; attach at construction (retrieval.Config.Metrics) or server startup.
func (e *Engine) SetMetrics(reg *obs.Registry, slow *obs.SlowLog) {
	e.metrics = newQueryMetrics(reg, slow)
	if reg == nil {
		return
	}
	model := e.Model
	reg.Func("cache.cors.hits", func() int64 { return int64(model.CacheStats().CorSHits) })
	reg.Func("cache.cors.misses", func() int64 { return int64(model.CacheStats().CorSMisses) })
	reg.Func("cache.smooth.hits", func() int64 { return int64(model.CacheStats().SmoothHits) })
	reg.Func("cache.smooth.misses", func() int64 { return int64(model.CacheStats().SmoothMisses) })
	if idx := e.Index; idx != nil {
		reg.Func("index.resident.bytes", func() int64 { return idx.MemoryBytes() })
		if ls := idx.LoadStats(); ls != nil {
			reg.Func("index.load.ms", func() int64 { return int64(ls.WallMillis) })
			reg.Func("index.load.bytes", func() int64 { return ls.Bytes })
		}
	}
}
