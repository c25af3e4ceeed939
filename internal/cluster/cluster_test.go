package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"figfusion/internal/api"
	"figfusion/internal/cluster"
	"figfusion/internal/dataset"
	"figfusion/internal/media"
	"figfusion/internal/obs"
	"figfusion/internal/retrieval"
	"figfusion/internal/server"
	"figfusion/internal/shard"
	"figfusion/internal/topk"
)

// flakyBackend wraps a Backend with a kill switch, so tests can take a
// node down and bring it back without tearing down transport state.
type flakyBackend struct {
	cluster.Backend
	down atomic.Bool
}

var errNodeDown = errors.New("flaky: node is down")

func (f *flakyBackend) Search(ctx context.Context, req *api.SearchRequest) ([]topk.Item, error) {
	if f.down.Load() {
		return nil, errNodeDown
	}
	return f.Backend.Search(ctx, req)
}

func (f *flakyBackend) Insert(ctx context.Context, req *api.InsertRequest) (int64, error) {
	if f.down.Load() {
		return 0, errNodeDown
	}
	return f.Backend.Insert(ctx, req)
}

func (f *flakyBackend) Objects(ctx context.Context) (int, error) {
	if f.down.Load() {
		return 0, errNodeDown
	}
	return f.Backend.Objects(ctx)
}

// flakyCluster builds an n-node local cluster whose backends can be killed
// and revived, returning the node routers for direct tampering and replay.
func flakyCluster(t testing.TB, n int) (*cluster.Cluster, *dataset.Dataset, []*flakyBackend, []*shard.Router) {
	t.Helper()
	assign := testAssignment(t, n)
	backends := make([]*flakyBackend, n)
	routers := make([]*shard.Router, n)
	nodes := make([]cluster.NodeConfig, n)
	for i := range nodes {
		routers[i] = testNodeRouter(t, assign, i)
		backends[i] = &flakyBackend{Backend: cluster.NewLocalBackend(routers[i])}
		nodes[i] = cluster.NodeConfig{Name: assign.Names()[i], Backend: backends[i]}
	}
	d, m := testSystem(t)
	c, err := cluster.New(cluster.Config{Mirror: m, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return c, d, backends, routers
}

// TestAssignmentPartition pins the partition contract: NodeFor is a pure
// deterministic function of the node-name list, the per-node Owns
// predicates are disjoint and exhaustive, and every node owns something at
// realistic corpus sizes.
func TestAssignmentPartition(t *testing.T) {
	const n, objects = 4, 2000
	a := testAssignment(t, n)
	b := testAssignment(t, n)
	counts := make([]int, n)
	for id := 0; id < objects; id++ {
		oid := media.ObjectID(id)
		owner := a.NodeFor(oid)
		if got := b.NodeFor(oid); got != owner {
			t.Fatalf("object %d: two assignments over the same names disagree (%d vs %d)", id, owner, got)
		}
		owners := 0
		for node := 0; node < n; node++ {
			if a.Owns(node)(oid) {
				owners++
				if node != owner {
					t.Fatalf("object %d: owned by node %d but NodeFor says %d", id, node, owner)
				}
			}
		}
		if owners != 1 {
			t.Fatalf("object %d has %d owners, want exactly 1", id, owners)
		}
		counts[owner]++
	}
	for node, got := range counts {
		if got == 0 {
			t.Fatalf("node %d owns no objects out of %d — degenerate partition", node, objects)
		}
	}
	if _, err := cluster.NewAssignment([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate node names were accepted")
	}
	if _, err := cluster.NewAssignment(nil); err == nil {
		t.Fatal("empty node list was accepted")
	}
}

// TestClusterDegradedPartialResults pins the acceptance scenario: killing
// a node mid-serving degrades searches to flagged partial results instead
// of failures, and killing every node fails with ErrUnavailable.
func TestClusterDegradedPartialResults(t *testing.T) {
	c, d, backends, _ := flakyCluster(t, 3)
	q := d.Corpus.Object(3)
	res := c.Search(q, 10, q.ID)
	if res.Partial || len(res.Items) == 0 {
		t.Fatalf("healthy cluster answered partial=%v with %d items", res.Partial, len(res.Items))
	}
	full := res.Items

	backends[1].down.Store(true)
	res = c.Search(q, 10, q.ID)
	if !res.Partial {
		t.Fatal("search with a dead node was not flagged partial")
	}
	if len(res.Items) == 0 {
		t.Fatal("partial result carried no items from the surviving nodes")
	}
	if len(res.Items) > len(full) {
		t.Fatalf("partial result has %d items, full had %d", len(res.Items), len(full))
	}
	infos := c.NodeInfos()
	if infos[1].Healthy {
		t.Fatal("dead node still marked healthy after a failed search")
	}
	// Subsequent searches skip the dead node without contacting it.
	if res = c.Search(q, 10, q.ID); !res.Partial {
		t.Fatal("follow-up search was not flagged partial")
	}

	backends[0].down.Store(true)
	backends[2].down.Store(true)
	if _, err := c.SearchContext(context.Background(), q, 10, q.ID); !errors.Is(err, cluster.ErrUnavailable) {
		t.Fatalf("all-nodes-dead search returned %v, want ErrUnavailable", err)
	}

	// Revival: probes restore the nodes and full results resume.
	for _, b := range backends {
		b.down.Store(false)
	}
	c.Probe(context.Background())
	for i, ni := range c.NodeInfos() {
		if !ni.Healthy || ni.Divergent {
			t.Fatalf("node %d not restored by probe: %+v", i, ni)
		}
	}
	res = c.Search(q, 10, q.ID)
	if res.Partial {
		t.Fatal("search still partial after all nodes revived")
	}
}

// TestClusterDivergenceAndReplay drives the generation-stamp protocol end
// to end: a node that misses a replicated insert is marked divergent and
// skipped (searches degrade to partial), probes alone cannot clear it
// while its corpus size disagrees with the mirror, and once an operator
// replays the missed insert (stamped, through InsertContext) the next probe
// restores it.
func TestClusterDivergenceAndReplay(t *testing.T) {
	c, _, backends, routers := flakyCluster(t, 2)
	feats := []media.Feature{{Kind: media.Text, Name: "divergence-probe-tag"}}
	counts := []int{1}

	// Kill the node that does NOT own the next object ID, so the insert
	// commits on the owner and the dead node misses the replication.
	nextID := media.ObjectID(c.Model().Stats.Corpus().Len())
	lost := 1 - c.Assignment().NodeFor(nextID)
	backends[lost].down.Store(true)
	o, err := c.Insert(feats, counts, 2)
	if err != nil {
		t.Fatalf("insert with down non-owner failed: %v", err)
	}
	if !c.NodeInfos()[lost].Divergent {
		t.Fatal("node that missed a replicated insert was not marked divergent")
	}

	// Back up, but still missing the insert: probe must keep it divergent.
	backends[lost].down.Store(false)
	c.Probe(context.Background())
	ni := c.NodeInfos()[lost]
	if !ni.Healthy {
		t.Fatal("revived node not marked healthy by probe")
	}
	if !ni.Divergent {
		t.Fatal("probe cleared divergence while the node's corpus still disagrees with the mirror")
	}
	q := o
	if res := c.Search(q, 10, -1); !res.Partial {
		t.Fatal("search over a divergent node was not flagged partial")
	}

	// Stale stamps refuse directly at the node.
	wrongExpect := routers[lost].Model().Stats.Corpus().Len() + 5
	if _, err := backends[lost].Insert(context.Background(), &api.InsertRequest{
		Features: api.EncodeFeatures(feats, counts), Month: 2, Expect: &wrongExpect,
	}); !errors.Is(err, cluster.ErrDiverged) {
		t.Fatalf("stale stamp returned %v, want ErrDiverged", err)
	}

	// Operator replay: apply the missed insert with its original stamp,
	// then probe — the node's corpus matches the mirror again.
	if _, err := routers[lost].InsertContext(context.Background(), feats, counts, 2, int(o.ID)); err != nil {
		t.Fatalf("replaying the missed insert: %v", err)
	}
	c.Probe(context.Background())
	if ni := c.NodeInfos()[lost]; !ni.Healthy || ni.Divergent {
		t.Fatalf("node not restored after replay + probe: %+v", ni)
	}
	if res := c.Search(q, 10, -1); res.Partial {
		t.Fatal("search still partial after the node caught up")
	}
}

// TestSnapshotBootstrapOverHTTP replaces a node from a live peer: stream
// the snapshot over /v1/admin/snapshot, rebuild a router for the same
// partition with LoadSnapshotStream, and require byte-identical rankings
// from the replacement.
func TestSnapshotBootstrapOverHTTP(t *testing.T) {
	assign := testAssignment(t, 2)
	orig := testNodeRouter(t, assign, 0)
	ts := nodeServer(t, orig)

	rc, err := cluster.FetchSnapshot(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	_, m2 := testSystem(t)
	m2.Thresholds = orig.Model().Thresholds
	repl, man, err := shard.LoadSnapshotStream(m2, shard.Config{Owns: assign.Owns(0)}, rc)
	if err != nil {
		t.Fatal(err)
	}
	if man.Objects != orig.Model().Stats.Corpus().Len() {
		t.Fatalf("manifest cut at %d objects, corpus has %d", man.Objects, orig.Model().Stats.Corpus().Len())
	}
	corpus := orig.Model().Stats.Corpus()
	for id := 0; id < 10; id++ {
		q := corpus.Object(media.ObjectID(id))
		want := orig.Search(q, 10, q.ID)
		got := repl.Search(q, 10, q.ID)
		if len(want) != len(got) {
			t.Fatalf("query %d: %d vs %d results", id, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("query %d rank %d: %+v vs %+v", id, i, want[i], got[i])
			}
		}
	}

	// The stream carries the node's partition; a different node's config
	// must refuse it rather than serve the wrong slice.
	rc2, err := cluster.FetchSnapshot(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	_, m3 := testSystem(t)
	if _, _, err := shard.LoadSnapshotStream(m3, shard.Config{Owns: assign.Owns(1)}, rc2); err == nil {
		t.Fatal("a snapshot of node 0's partition loaded under node 1's config")
	}

	// A standalone server is a one-shard router: it streams a one-shard set
	// that loads and answers byte-identically.
	_, sm := testSystem(t)
	eng, err := retrieval.NewEngine(sm, retrieval.Config{})
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(server.New(eng, server.DefaultOptions()).Handler())
	t.Cleanup(single.Close)
	rc3, err := cluster.FetchSnapshot(context.Background(), single.URL)
	if err != nil {
		t.Fatalf("standalone server refused to stream: %v", err)
	}
	defer rc3.Close()
	_, m4 := testSystem(t)
	m4.Thresholds = sm.Thresholds
	repl1, man1, err := shard.LoadSnapshotStream(m4, shard.Config{}, rc3)
	if err != nil {
		t.Fatal(err)
	}
	if man1.Shards != 1 {
		t.Fatalf("standalone snapshot set has %d shards, want 1", man1.Shards)
	}
	body := func(base, path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %s", resp.StatusCode, raw)
	}
	loaded := nodeServer(t, repl1)
	for id := 0; id < 10; id++ {
		path := fmt.Sprintf("/v1/search?id=%d&k=10", id)
		if want, got := body(single.URL, path), body(loaded.URL, path); want != got {
			t.Fatalf("%s: loaded one-shard set answers\n%s\nstandalone server answered\n%s", path, got, want)
		}
	}

	// A cluster front-end holds no index: it still refuses, with the
	// unavailable envelope.
	c, _ := localCluster(t, 2)
	front := httptest.NewServer(server.NewCluster(c, server.DefaultOptions()).Handler())
	t.Cleanup(front.Close)
	if got := body(front.URL, "/v1/admin/snapshot"); !strings.HasPrefix(got, "503 ") || !strings.Contains(got, `"code":"unavailable"`) {
		t.Fatalf("cluster front-end snapshot = %s, want 503 unavailable", got)
	}
	// Bootstrapping from it surfaces that envelope, not a JSON blob.
	_, err = cluster.FetchSnapshot(context.Background(), front.URL)
	if err == nil || !strings.Contains(err.Error(), "unavailable: "+cluster.ErrNoSnapshot.Error()) || strings.Contains(err.Error(), "{") {
		t.Fatalf("bootstrap from a router front-end: err = %v, want the unavailable envelope's code and message", err)
	}

	// The stream is stamped with what the index was built under: a model
	// trained to other thresholds (another -seed) is refused by name.
	rc4, err := cluster.FetchSnapshot(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rc4.Close()
	_, m5 := testSystem(t)
	m5.Thresholds[media.Text][media.Text] += 0.125
	_, _, err = shard.LoadSnapshotStream(m5, shard.Config{Owns: assign.Owns(0)}, rc4)
	if err == nil || !strings.Contains(err.Error(), "thresholds[") || !strings.Contains(err.Error(), "-seed") {
		t.Fatalf("bootstrap under other thresholds: err = %v, want a refusal naming thresholds and -seed", err)
	}
}

// slowBackend adds a fixed delay in front of a Backend — enough for the
// hedge timer to fire on every request.
type slowBackend struct {
	cluster.Backend
	delay time.Duration
}

func (s *slowBackend) Search(ctx context.Context, req *api.SearchRequest) ([]topk.Item, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Backend.Search(ctx, req)
}

// TestClusterHedgedRequests pins that hedging fires on slow nodes and
// never changes result bytes: the hedged answer matches an unhedged
// cluster over the same data.
func TestClusterHedgedRequests(t *testing.T) {
	assign := testAssignment(t, 2)
	build := func(hedge time.Duration) (*cluster.Cluster, *dataset.Dataset) {
		nodes := make([]cluster.NodeConfig, 2)
		for i := range nodes {
			var b cluster.Backend = cluster.NewLocalBackend(testNodeRouter(t, assign, i))
			if hedge > 0 {
				b = &slowBackend{Backend: b, delay: 4 * time.Millisecond}
			}
			nodes[i] = cluster.NodeConfig{Name: assign.Names()[i], Backend: b}
		}
		d, m := testSystem(t)
		c, err := cluster.New(cluster.Config{Mirror: m, Nodes: nodes, HedgeAfter: hedge})
		if err != nil {
			t.Fatal(err)
		}
		return c, d
	}
	plain, pd := build(0)
	hedged, hd := build(time.Millisecond)
	reg := obs.NewRegistry()
	hedged.SetMetrics(reg)
	for id := 0; id < 5; id++ {
		q := pd.Corpus.Object(media.ObjectID(id))
		want := plain.Search(q, 10, q.ID)
		hq := hd.Corpus.Object(media.ObjectID(id))
		got := hedged.Search(hq, 10, hq.ID)
		if got.Partial || len(want.Items) != len(got.Items) {
			t.Fatalf("query %d: hedged answer partial=%v len=%d, want len=%d", id, got.Partial, len(got.Items), len(want.Items))
		}
		for i := range want.Items {
			if want.Items[i] != got.Items[i] {
				t.Fatalf("query %d rank %d: hedged %+v vs plain %+v", id, i, got.Items[i], want.Items[i])
			}
		}
	}
	if fired := reg.Snapshot().Counters["cluster.hedge.fired"]; fired == 0 {
		t.Fatal("hedge never fired despite every node being slower than the hedge delay")
	}
}

// TestClusterMetricsNames pins the observability surface: the instruments
// the issue names must all appear in a registry snapshot after serving.
func TestClusterMetricsNames(t *testing.T) {
	c, d, _, _ := flakyCluster(t, 2)
	reg := obs.NewRegistry()
	c.SetMetrics(reg)
	q := d.Corpus.Object(0)
	c.Search(q, 5, q.ID)
	applyInsertsOne(t, c)
	snap := reg.Snapshot()
	for _, name := range []string{"cluster.search.total", "cluster.node.requests", "cluster.inserts.total"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s not incremented (have %v)", name, snap.Counters)
		}
	}
	for _, name := range []string{"cluster.node.errors", "cluster.hedge.fired", "cluster.hedge.won"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %s not registered", name)
		}
	}
	for _, name := range []string{"cluster.fanout.latency", "cluster.node.00.latency", "cluster.node.01.latency"} {
		if _, ok := snap.Histograms[name]; !ok {
			t.Errorf("histogram %s not registered", name)
		}
	}
	if snap.Histograms["cluster.node.00.latency"].Count == 0 {
		t.Error("per-node latency histogram recorded nothing")
	}
	for _, name := range []string{"cluster.node.healthy", "cluster.node.divergent"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %s not registered", name)
		}
	}
	if got := snap.Gauges["cluster.node.healthy"]; got != 2 {
		t.Errorf("cluster.node.healthy = %d, want 2", got)
	}
}

func applyInsertsOne(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	if _, err := c.Insert([]media.Feature{{Kind: media.Text, Name: "metrics-tag"}}, []int{1}, 1); err != nil {
		t.Fatal(err)
	}
}
