// Package cluster is the multi-node serving tier: a router front-end that
// scatter-gathers searches across N shard nodes — in-process or remote
// over the /v1 wire — and replicates inserts to all of them.
//
// The parity contract extends the shard package's: every node runs a
// shard.Router whose Owns predicate restricts indexing to the rendezvous
// partition of one shared node list, while every node's statistics cover
// the whole corpus (inserts replicate everywhere; only the owner indexes).
// Partitions are disjoint and exhaustive and every score is computed from
// corpus-global statistics, so folding the per-node top-k lists under
// topk.MergeRanked's total order reproduces the single-engine ranking byte
// for byte — over LocalBackends and over loopback HTTP alike, because Go's
// JSON float64 round-trip is exact.
//
// Failure policy: a node that errors on a search is marked unhealthy and
// its partition is skipped — the query degrades to a flagged partial
// result instead of failing. A node that misses or refuses a stamped
// insert is marked diverged and skipped until a probe sees its corpus size
// back in line with the router's mirror (typically after an operator
// re-bootstraps it from a peer snapshot). Tail latency is bounded by
// hedged requests: after a per-node p99-derived delay the router fires a
// second identical request at the node and takes whichever answers first —
// identical requests are deterministic, so hedging never changes bytes.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"figfusion/internal/api"
	"figfusion/internal/corr"
	"figfusion/internal/media"
	"figfusion/internal/obs"
	"figfusion/internal/shard"
	"figfusion/internal/topk"
)

// NodeConfig names one shard node and the transport to reach it.
type NodeConfig struct {
	Name    string
	Backend Backend
}

// Config assembles a Cluster.
type Config struct {
	// Mirror is the router's own corpus-global model: it resolves and
	// formats queries, stamps replicated inserts, and is the reference the
	// divergence probes compare node corpus sizes against. It must be built
	// from the same dataset as every node's model.
	Mirror *corr.Model
	// Nodes lists the shard nodes in the order the shared -nodes list
	// declares them; the rendezvous assignment hashes their names.
	Nodes []NodeConfig
	// HedgeAfter enables hedged search requests: a node that has not
	// answered after max(HedgeAfter, its observed p99) gets a second
	// identical request, first answer wins. 0 disables hedging.
	HedgeAfter time.Duration
	// ProbeInterval is the health-probe period for Start (0 = default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one node probe (0 = default 1s).
	ProbeTimeout time.Duration
}

// node is one shard node's runtime state. healthy and divergent are
// independent: an unreachable node is unhealthy; a reachable node whose
// corpus drifted from the mirror is divergent. Either excludes the node
// from serving.
type node struct {
	name      string
	backend   Backend
	healthy   atomic.Bool
	divergent atomic.Bool
	// latency is always on (not just under SetMetrics): the hedging delay
	// derives from its p99.
	latency *obs.Histogram
}

func (n *node) eligible() bool { return n.healthy.Load() && !n.divergent.Load() }

// Cluster is the router front-end over N shard nodes. Construct with New;
// safe for concurrent use.
type Cluster struct {
	mirror *corr.Model
	assign *Assignment
	nodes  []*node

	hedgeAfter   time.Duration
	probeEvery   time.Duration
	probeTimeout time.Duration

	// statsMu guards the mirror's corpus-global state, with the same
	// reader/writer split as shard.Router.statsMu: query resolution and
	// result formatting hold it shared, the mirror phase of a replicated
	// insert holds it exclusively.
	statsMu sync.RWMutex
	// insertMu serializes replicated inserts end to end — the stamp
	// protocol needs the mirror length and the node fan-out to change
	// atomically with respect to other inserts.
	insertMu sync.Mutex

	metrics clusterMetrics
}

// hedgeMinSamples is how many latency observations a node needs before its
// own p99 (rather than the configured floor) drives the hedge delay.
const hedgeMinSamples = 16

// New assembles a cluster over cfg.Nodes. All nodes start healthy; the
// first failed request or probe demotes them.
func New(cfg Config) (*Cluster, error) {
	if cfg.Mirror == nil {
		return nil, fmt.Errorf("cluster: Config.Mirror must be set")
	}
	names := make([]string, len(cfg.Nodes))
	for i, nc := range cfg.Nodes {
		if nc.Backend == nil {
			return nil, fmt.Errorf("cluster: node %d (%q) has no backend", i, nc.Name)
		}
		names[i] = nc.Name
	}
	assign, err := NewAssignment(names)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		mirror:       cfg.Mirror,
		assign:       assign,
		nodes:        make([]*node, len(cfg.Nodes)),
		hedgeAfter:   cfg.HedgeAfter,
		probeEvery:   cfg.ProbeInterval,
		probeTimeout: cfg.ProbeTimeout,
	}
	if c.probeEvery <= 0 {
		c.probeEvery = 2 * time.Second
	}
	if c.probeTimeout <= 0 {
		c.probeTimeout = time.Second
	}
	for i, nc := range cfg.Nodes {
		n := &node{name: nc.Name, backend: nc.Backend, latency: obs.NewHistogram(obs.DefaultLatencyBuckets())}
		n.healthy.Store(true)
		c.nodes[i] = n
	}
	return c, nil
}

// Model returns the router's mirror model. Reads of the corpus it serves
// must be pinned with View when inserts may race.
func (c *Cluster) Model() *corr.Model { return c.mirror }

// Assignment returns the partition map (shared with shard nodes via the
// node-name list).
func (c *Cluster) Assignment() *Assignment { return c.assign }

// View runs fn while the mirror's corpus-global state is pinned against
// replicated inserts — the hook HTTP handlers use to parse queries and
// format results. fn must not call the cluster's own search or insert
// methods (recursive read-locking deadlocks once a writer queues).
func (c *Cluster) View(fn func()) {
	c.statsMu.RLock()
	defer c.statsMu.RUnlock()
	fn()
}

// corpusLen reads the mirror corpus size under the statistics read lock.
func (c *Cluster) corpusLen() int {
	c.statsMu.RLock()
	defer c.statsMu.RUnlock()
	return c.mirror.Stats.Corpus().Len()
}

// Result is one scatter-gather answer. Partial marks a degraded answer:
// one or more nodes were skipped (dead or diverged), so Items covers only
// the partitions that answered.
type Result struct {
	Items   []topk.Item
	Partial bool
}

// Search scatter-gathers the indexed MRF search across the nodes.
func (c *Cluster) Search(q *media.Object, k int, exclude media.ObjectID) Result {
	out, _ := c.SearchContext(context.Background(), q, k, exclude)
	return out
}

// SearchContext is Search under a context: node requests carry ctx, and a
// done context aborts the scatter with ctx.Err() (node failures degrade to
// a partial result instead).
func (c *Cluster) SearchContext(ctx context.Context, q *media.Object, k int, exclude media.ObjectID) (Result, error) {
	items, partial, err := c.Query(ctx, q, k, exclude, false)
	return Result{Items: items, Partial: partial}, err
}

// SearchTA scatter-gathers the literal Algorithm 1 threshold path.
func (c *Cluster) SearchTA(q *media.Object, k int, exclude media.ObjectID) Result {
	out, _ := c.SearchTAContext(context.Background(), q, k, exclude)
	return out
}

// SearchTAContext is SearchTA under a context, with SearchContext's
// cancellation contract.
func (c *Cluster) SearchTAContext(ctx context.Context, q *media.Object, k int, exclude media.ObjectID) (Result, error) {
	items, partial, err := c.Query(ctx, q, k, exclude, true)
	return Result{Items: items, Partial: partial}, err
}

// Query is the one search entry point (ta selects the Algorithm 1
// threshold path): it fans the request out to every eligible node through
// the leg runner shared with shard.Router, folds the per-node top-k lists
// under MergeRanked's total order, and applies the degraded-mode policy —
// skipped and failed nodes flag the answer partial (the returned bool), a
// done ctx fails the query, and no answering node at all fails it with
// ErrUnavailable.
func (c *Cluster) Query(ctx context.Context, q *media.Object, k int, exclude media.ObjectID, ta bool) ([]topk.Item, bool, error) {
	req := c.encode(q, k, exclude, ta)
	c.metrics.searches.Inc()
	live := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.eligible() {
			live = append(live, n)
		}
	}
	// Node legs wait on peers, so they overlap whatever GOMAXPROCS is.
	legs := c.metrics.legs.Scatter(len(live), true, func(i int) ([]topk.Item, error) {
		return c.callNode(ctx, live[i], req)
	})
	answered := 0
	for i, l := range legs {
		if l.Err == nil {
			answered++
			continue
		}
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		c.metrics.errors.Inc()
		live[i].healthy.Store(false)
	}
	if answered == 0 {
		return nil, false, fmt.Errorf("%w: all %d nodes failed or were skipped", ErrUnavailable, len(c.nodes))
	}
	return shard.MergeLegs(legs, k), answered < len(c.nodes), nil
}

// encode renders the query for the wire under the mirror's read lock (the
// dictionary may grow under a racing insert).
func (c *Cluster) encode(q *media.Object, k int, exclude media.ObjectID, ta bool) *api.SearchRequest {
	c.statsMu.RLock()
	defer c.statsMu.RUnlock()
	return api.EncodeQuery(c.mirror.Stats.Corpus().Dict, q, k, exclude, ta)
}

// callNode runs one node request, hedged when configured: if the first
// attempt has not answered within the node's hedge delay, an identical
// second attempt races it and the first answer wins (the loser is
// cancelled). Both attempts are the same deterministic computation, so the
// winner's identity never changes result bytes.
func (c *Cluster) callNode(ctx context.Context, n *node, req *api.SearchRequest) ([]topk.Item, error) {
	c.metrics.requests.Inc()
	delay := c.hedgeDelay(n)
	if delay <= 0 {
		start := time.Now()
		items, err := n.backend.Search(ctx, req)
		n.latency.Observe(time.Since(start))
		return items, err
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type attempt struct {
		items  []topk.Item
		err    error
		hedged bool
		dur    time.Duration
	}
	ch := make(chan attempt, 2) // buffered: the losing attempt must not block on send
	run := func(hedged bool) {
		start := time.Now()
		items, err := n.backend.Search(hctx, req)
		ch <- attempt{items: items, err: err, hedged: hedged, dur: time.Since(start)}
	}
	go run(false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var first attempt
	select {
	case first = <-ch:
		n.latency.Observe(first.dur)
		return first.items, first.err
	case <-timer.C:
		c.metrics.hedged.Inc()
		go run(true)
		first = <-ch
	}
	if first.err != nil {
		// The first finisher failed; the other attempt may still succeed.
		if second := <-ch; second.err == nil {
			first = second
		}
	}
	n.latency.Observe(first.dur)
	if first.err == nil && first.hedged {
		c.metrics.hedgeWins.Inc()
	}
	return first.items, first.err
}

// hedgeDelay derives one node's hedge delay: its observed p99 once enough
// samples exist, floored by the configured HedgeAfter; 0 = hedging off.
func (c *Cluster) hedgeDelay(n *node) time.Duration {
	if c.hedgeAfter <= 0 {
		return 0
	}
	snap := n.latency.Snapshot()
	if snap.Count < hedgeMinSamples {
		return c.hedgeAfter
	}
	if p99 := time.Duration(snap.P99Ms * float64(time.Millisecond)); p99 > c.hedgeAfter {
		return p99
	}
	return c.hedgeAfter
}

// Insert replicates one new object to every node (the owner first) and the
// mirror.
func (c *Cluster) Insert(feats []media.Feature, counts []int, month int) (*media.Object, error) {
	return c.InsertContext(context.Background(), feats, counts, month, -1)
}

// InsertContext is the stamped replicated insert. The new object's ID is
// the mirror's pre-insert corpus length; every node request carries it as
// the expect stamp, so a drifted node refuses instead of mis-assigning.
// Order is owner-first: the owning node must index the object for it to be
// retrievable, so its failure fails the insert; after the owner and the
// mirror commit, a non-owner failure only marks that node diverged (its
// statistics missed the append) and the insert still succeeds. When expect
// >= 0 the caller's own stamp is checked against the mirror first.
func (c *Cluster) InsertContext(ctx context.Context, feats []media.Feature, counts []int, month int, expect int) (*media.Object, error) {
	// Checked up front so the mirror append after the owner's commit
	// cannot fail on bad input.
	if err := media.ValidateFeatures(feats, counts); err != nil {
		return nil, err
	}
	c.insertMu.Lock()
	defer c.insertMu.Unlock()
	id := c.corpusLen()
	if expect >= 0 && id != expect {
		return nil, &shard.PreconditionError{Objects: id, Expect: expect}
	}
	wire := &api.InsertRequest{Features: api.EncodeFeatures(feats, counts), Month: month, Expect: &id}
	owner := c.assign.NodeFor(media.ObjectID(id))
	own := c.nodes[owner]
	if !own.eligible() {
		return nil, fmt.Errorf("%w: owner node %s of object %d is down or diverged", ErrUnavailable, own.name, id)
	}
	if _, err := own.backend.Insert(ctx, wire); err != nil {
		c.noteInsertFailure(own, err)
		return nil, fmt.Errorf("cluster: insert on owner node %s: %w", own.name, err)
	}
	o, err := c.appendMirror(feats, counts, month)
	if err != nil {
		// The validation above makes mirror appends infallible in
		// practice; a failure here means owner and mirror have skewed, so
		// stop serving through the owner until a probe or re-bootstrap
		// reconciles.
		own.divergent.Store(true)
		return nil, fmt.Errorf("cluster: mirror append after owner commit: %w", err)
	}
	c.metrics.insert(owner)
	for i, n := range c.nodes {
		if i == owner {
			continue
		}
		if !n.healthy.Load() {
			// A dead node misses this insert; flag it now so it does not
			// serve stale statistics when it comes back.
			n.divergent.Store(true)
			continue
		}
		if _, err := n.backend.Insert(ctx, wire); err != nil {
			c.metrics.errors.Inc()
			c.noteInsertFailure(n, err)
		}
	}
	return o, nil
}

// noteInsertFailure demotes a node after a failed replicated insert: a
// refused stamp means it had already drifted; any other failure means it
// just missed this insert (and is likely unreachable).
func (c *Cluster) noteInsertFailure(n *node, err error) {
	if errors.Is(err, ErrDiverged) {
		n.divergent.Store(true)
		return
	}
	n.healthy.Store(false)
	n.divergent.Store(true)
}

// appendMirror grows the mirror's corpus and statistics under the
// exclusive statistics lock. The mirror carries no index; invalidating the
// cache advances the model generation exactly as a node's append does.
func (c *Cluster) appendMirror(feats []media.Feature, counts []int, month int) (*media.Object, error) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.mirror.Append(feats, counts, month)
}

// Start launches the background health-probe loop; it stops when ctx is
// done. Call at most once.
func (c *Cluster) Start(ctx context.Context) {
	go c.probeLoop(ctx)
}

func (c *Cluster) probeLoop(ctx context.Context) {
	ticker := time.NewTicker(c.probeEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.Probe(ctx)
		}
	}
}

// Probe runs one health pass over every node: an answering node is
// healthy; an answering node whose corpus size matches the mirror is also
// back in sync, clearing any divergence flag (a node that missed inserts
// stays diverged until re-bootstrapped, since its size cannot catch up on
// its own). Exported so tests and operators can force a pass.
func (c *Cluster) Probe(ctx context.Context) {
	for _, n := range c.nodes {
		pctx, cancel := context.WithTimeout(ctx, c.probeTimeout)
		objects, err := n.backend.Objects(pctx)
		cancel()
		if err != nil {
			n.healthy.Store(false)
			continue
		}
		n.healthy.Store(true)
		if n.divergent.Load() && objects == c.corpusLen() {
			n.divergent.Store(false)
		}
	}
}

// NodeInfo is one node's health snapshot — the per-node stats the server's
// /v1/healthz reports in router mode.
type NodeInfo struct {
	Node      int    `json:"node"`
	Name      string `json:"name"`
	Healthy   bool   `json:"healthy"`
	Divergent bool   `json:"divergent"`
}

// NodeInfos snapshots every node's health state.
func (c *Cluster) NodeInfos() []NodeInfo {
	infos := make([]NodeInfo, len(c.nodes))
	for i, n := range c.nodes {
		infos[i] = NodeInfo{Node: i, Name: n.name, Healthy: n.healthy.Load(), Divergent: n.divergent.Load()}
	}
	return infos
}

// HealthFields are the fields this tier adds to /v1/healthz: every node's
// health and divergence state.
func (c *Cluster) HealthFields() map[string]interface{} {
	return map[string]interface{}{"nodes": c.NodeInfos()}
}

// ErrNoSnapshot is StreamSnapshot's refusal: the indexes live on the nodes.
var ErrNoSnapshot = errors.New("cluster: a router front-end holds no index to snapshot; stream one from a shard node")

// StreamSnapshot refuses without writing: a cluster front-end holds a
// mirror model and no index. It exists so the server's backends answer
// GET /v1/admin/snapshot through one method.
func (c *Cluster) StreamSnapshot(io.Writer) error { return ErrNoSnapshot }

// Close releases every backend's transport resources.
func (c *Cluster) Close() error {
	var first error
	for _, n := range c.nodes {
		if err := n.backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
