package cluster

import (
	"fmt"

	"figfusion/internal/obs"
	"figfusion/internal/shard"
)

// Metric names the cluster registers. Per-node latency histograms carry
// the node number (cluster.node.00.latency, …) so a slow or flapping node
// is visible directly in a metrics snapshot.
const (
	metricSearchTotal  = "cluster.search.total"
	metricNodeRequests = "cluster.node.requests"
	metricNodeErrors   = "cluster.node.errors"
	metricHedgeFired   = "cluster.hedge.fired"
	metricHedgeWon     = "cluster.hedge.won"
	metricFanout       = "cluster.fanout.latency"
	metricStraggler    = "cluster.straggler.gap"
	metricInserts      = "cluster.inserts.total"
)

// clusterMetrics is the router front-end's instrument bundle: the shared
// leg runner's fan-out latency and straggler gap, here over nodes where
// the shard router's are over shards, node request/error counters, hedging
// effectiveness, and insert routing counters. The zero value is
// instrumentation off (nil instruments ignore updates) — except the
// per-node latency histograms, which live on the nodes themselves because
// hedge delays derive from them.
type clusterMetrics struct {
	searches  *obs.Counter
	requests  *obs.Counter
	errors    *obs.Counter
	hedged    *obs.Counter
	hedgeWins *obs.Counter
	legs      shard.Fanout
	inserts   *obs.Counter
	nodeIns   []*obs.Counter
}

// insert counts one replicated insert against its owning node.
func (m *clusterMetrics) insert(node int) {
	m.inserts.Inc()
	if m.nodeIns != nil {
		m.nodeIns[node].Inc()
	}
}

// SetMetrics attaches (or detaches, with a nil registry) observability.
// The always-on per-node latency histograms are published into the
// registry rather than created by it; func gauges report how many nodes
// are currently healthy and how many have diverged. Call after
// construction, never concurrently with serving.
func (c *Cluster) SetMetrics(reg *obs.Registry) {
	m := clusterMetrics{
		searches:  reg.Counter(metricSearchTotal),
		requests:  reg.Counter(metricNodeRequests),
		errors:    reg.Counter(metricNodeErrors),
		hedged:    reg.Counter(metricHedgeFired),
		hedgeWins: reg.Counter(metricHedgeWon),
		legs:      shard.NewFanout(reg, metricFanout, metricStraggler),
		inserts:   reg.Counter(metricInserts),
		nodeIns:   make([]*obs.Counter, len(c.nodes)),
	}
	for i, n := range c.nodes {
		m.nodeIns[i] = reg.Counter(fmt.Sprintf("cluster.node.%02d.inserts", i))
		reg.SetHistogram(fmt.Sprintf("cluster.node.%02d.latency", i), n.latency)
	}
	nodes := c.nodes
	reg.Func("cluster.node.healthy", func() int64 {
		var n int64
		for _, nd := range nodes {
			if nd.healthy.Load() {
				n++
			}
		}
		return n
	})
	reg.Func("cluster.node.divergent", func() int64 {
		var n int64
		for _, nd := range nodes {
			if nd.divergent.Load() {
				n++
			}
		}
		return n
	})
	c.metrics = m
}
