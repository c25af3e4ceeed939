package shard

import (
	"fmt"

	"figfusion/internal/obs"
)

// Metric names the router registers. Per-shard insert counters carry the
// shard number (shard.00.inserts, shard.01.inserts, …) so routing skew is
// visible directly in a metrics snapshot.
const (
	metricSearchTotal    = "shard.search.total"
	metricPrepareLatency = "shard.prepare.latency"
	metricFanoutLatency  = "shard.fanout.latency"
	metricStragglerGap   = "shard.straggler.gap"
	metricInsertsTotal   = "shard.inserts.total"
)

// routerMetrics is the router's instrument bundle: the shared leg runner's
// fan-out latency (one observation per shard per query) and straggler gap,
// query-side prepare latency, and insert routing counters. The zero value
// is instrumentation off: nil instruments ignore updates.
type routerMetrics struct {
	searches *obs.Counter
	prepare  *obs.Histogram
	legs     Fanout
	inserts  *obs.Counter
	shardIns []*obs.Counter
}

// newRouterMetrics resolves the bundle against reg; a nil registry hands
// out nil instruments.
func newRouterMetrics(reg *obs.Registry, shards int) routerMetrics {
	m := routerMetrics{
		searches: reg.Counter(metricSearchTotal),
		prepare:  reg.Histogram(metricPrepareLatency),
		legs:     NewFanout(reg, metricFanoutLatency, metricStragglerGap),
		inserts:  reg.Counter(metricInsertsTotal),
		shardIns: make([]*obs.Counter, shards),
	}
	for i := range m.shardIns {
		m.shardIns[i] = reg.Counter(fmt.Sprintf("shard.%02d.inserts", i))
	}
	return m
}

// recordInsert counts one routed insert against its owning shard.
func (m *routerMetrics) recordInsert(shard int) {
	m.inserts.Inc()
	if m.shardIns != nil {
		m.shardIns[shard].Inc()
	}
}

// SetMetrics attaches (or detaches, with a nil registry) observability:
// router-level fan-out/straggler/insert instruments plus each shard
// engine's per-stage query metrics — all into one shared registry, so
// per-stage histograms aggregate across shards. Call after construction
// or load, never concurrently with serving.
func (r *Router) SetMetrics(reg *obs.Registry, slow *obs.SlowLog) {
	r.metrics = newRouterMetrics(reg, len(r.shards))
	for _, sh := range r.shards {
		sh.eng.SetMetrics(reg, slow)
	}
	if reg == nil {
		return
	}
	// The per-shard engines each registered index gauges over their own
	// slice of the corpus; overwrite them with corpus-wide aggregates
	// (Func registration is replace-by-name). Resident bytes and snapshot
	// bytes sum across shards; cold-start load time reports the slowest
	// shard (Load reads the shard files one after another, so the
	// start-up wall time is nearer their sum).
	shards := r.shards
	reg.Func("index.resident.bytes", func() int64 {
		var total int64
		for _, sh := range shards {
			total += sh.residentBytes()
		}
		return total
	})
	var loadMs, loadBytes int64
	loaded := false
	for _, sh := range shards {
		if sh.eng.Index == nil {
			continue
		}
		if ls := sh.eng.Index.LoadStats(); ls != nil {
			loaded = true
			loadBytes += ls.Bytes
			if ms := int64(ls.WallMillis); ms > loadMs {
				loadMs = ms
			}
		}
	}
	if loaded {
		reg.Func("index.load.ms", func() int64 { return loadMs })
		reg.Func("index.load.bytes", func() int64 { return loadBytes })
	}
}

// residentBytes reads the shard index's self-reported residency under the
// shard lock — a scrape may race a routed insert mutating this index.
func (sh *shardState) residentBytes() int64 {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.eng.Index == nil {
		return 0
	}
	return sh.eng.Index.MemoryBytes()
}
