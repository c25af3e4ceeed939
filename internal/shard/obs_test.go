package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"figfusion/internal/media"
	"figfusion/internal/obs"
	"figfusion/internal/retrieval"
	"figfusion/internal/topk"
)

// TestSearchContextCancellation: a cancelled context aborts a sharded
// search between scoring stripes instead of running to completion.
func TestSearchContextCancellation(t *testing.T) {
	d, m := testSystem(t)
	r, err := NewRouter(m, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := d.Corpus.Object(3)

	// Already-expired context: every scoring stripe sees the cancellation
	// on its first check, so the abort is deterministic even on a corpus
	// this small.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items, err := r.SearchContext(ctx, q, 10, q.ID)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if items != nil {
		t.Errorf("cancelled search returned results: %v", items)
	}

	// Deadline flavour: an expired deadline reports DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := r.SearchContext(dctx, q, 10, q.ID); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	// A live context must not change results: SearchContext with
	// background context is byte-identical to Search.
	want := r.Search(q, 10, q.ID)
	got, err := r.SearchContext(context.Background(), q, 10, q.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(itemBytes(got), itemBytes(want)) {
		t.Error("SearchContext(Background) diverges from Search")
	}
}

// TestSearchContextCancelMidFlight cancels while a stream of sharded
// searches is in progress and checks the stream shuts down with ctx.Err()
// rather than hanging or panicking (the race detector guards the
// goroutine handoff in gather).
func TestSearchContextCancelMidFlight(t *testing.T) {
	d, m := testSystem(t)
	r, err := NewRouter(m, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			q := d.Corpus.Object(media.ObjectID(i % d.Corpus.Len()))
			if _, err := r.SearchContext(ctx, q, 10, q.ID); err != nil {
				done <- err
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("search loop ended with %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("search loop did not observe cancellation")
	}
}

// TestRouterMetrics: after SetMetrics, sharded searches and routed
// inserts show up under the shard.* instruments, and the per-shard
// fan-out histogram sees one observation per shard per search.
func TestRouterMetrics(t *testing.T) {
	d, m := testSystem(t)
	r, err := NewRouter(m, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r.SetMetrics(reg, obs.NewSlowLog(4, 0)) // threshold 0: every query is "slow"

	const searches = 3
	for i := 0; i < searches; i++ {
		q := d.Corpus.Object(media.ObjectID(i))
		r.Search(q, 5, q.ID)
	}
	if _, err := r.Insert([]media.Feature{{Kind: media.Text, Name: "topic00tag00"}}, []int{1}, 1); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["shard.search.total"]; got != searches {
		t.Errorf("shard.search.total = %d, want %d", got, searches)
	}
	if got := snap.Histograms["shard.prepare.latency"].Count; got != searches {
		t.Errorf("prepare observations = %d, want %d", got, searches)
	}
	if got := snap.Histograms["shard.fanout.latency"].Count; got != searches*2 {
		t.Errorf("fanout observations = %d, want %d (one per shard per search)", got, searches*2)
	}
	if got := snap.Histograms["shard.straggler.gap"].Count; got != searches {
		t.Errorf("straggler observations = %d, want %d", got, searches)
	}
	if got := snap.Counters["shard.inserts.total"]; got != 1 {
		t.Errorf("shard.inserts.total = %d, want 1", got)
	}
	perShard := snap.Counters["shard.00.inserts"] + snap.Counters["shard.01.inserts"]
	if perShard != 1 {
		t.Errorf("per-shard insert counters sum to %d, want 1", perShard)
	}
	// Engine-level instruments flow into the same registry.
	if got := snap.Counters["retrieval.search.total"]; got != searches*2 {
		t.Errorf("retrieval.search.total = %d, want %d (each shard runs one sub-search)", got, searches*2)
	}
	// Cache gauges registered by the shared scorer are present and sane.
	for _, name := range []string{"cache.cors.hits", "cache.cors.misses"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %s missing", name)
		}
	}
	// The router-level resident-bytes gauge overwrites the per-shard ones
	// and sums across the whole sharded index.
	var wantResident int64
	for _, sh := range r.shards {
		wantResident += sh.eng.Index.MemoryBytes()
	}
	if got := snap.Gauges["index.resident.bytes"]; got != wantResident {
		t.Errorf("index.resident.bytes = %d, want %d (sum over shards)", got, wantResident)
	}
	// A built (not loaded) router has no load stats to expose.
	if _, ok := snap.Gauges["index.load.ms"]; ok {
		t.Error("index.load.ms registered on a built router")
	}
}

// TestRouterLoadGauges: a router restored from snapshots exposes the
// cold-start gauges — total snapshot bytes across shards and the slowest
// shard's load wall time.
func TestRouterLoadGauges(t *testing.T) {
	_, m := testSystem(t)
	r, err := NewRouter(m, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir() + "/snap"
	if _, err := r.Save(base); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(m, Config{Shards: 2}, base)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	loaded.SetMetrics(reg, nil)
	snap := reg.Snapshot()
	var wantBytes, maxMs int64
	for _, sh := range loaded.shards {
		ls := sh.eng.Index.LoadStats()
		if ls == nil {
			t.Fatal("loaded shard has no LoadStats")
		}
		wantBytes += ls.Bytes
		if ms := int64(ls.WallMillis); ms > maxMs {
			maxMs = ms
		}
	}
	if got := snap.Gauges["index.load.bytes"]; got != wantBytes {
		t.Errorf("index.load.bytes = %d, want %d (sum over shards)", got, wantBytes)
	}
	if got, ok := snap.Gauges["index.load.ms"]; !ok || got != maxMs {
		t.Errorf("index.load.ms = %d (present=%v), want %d (slowest shard)", got, ok, maxMs)
	}
	if got, ok := snap.Gauges["index.resident.bytes"]; !ok || got <= 0 {
		t.Errorf("index.resident.bytes = %d (present=%v), want positive", got, ok)
	}
}

// TestNewRouterRejectsEngineMetrics: observability attaches through
// Router.SetMetrics after shard wiring, never through the per-shard
// retrieval config (the donor scorers it would instrument get replaced).
func TestNewRouterRejectsEngineMetrics(t *testing.T) {
	_, m := testSystem(t)
	if _, err := NewRouter(m, Config{Shards: 2, Retrieval: retrieval.Config{Metrics: obs.NewRegistry()}}); err == nil {
		t.Error("Config.Retrieval.Metrics accepted")
	}
	if _, err := NewRouter(m, Config{Shards: 2, Retrieval: retrieval.Config{SlowLog: obs.NewSlowLog(1, 0)}}); err == nil {
		t.Error("Config.Retrieval.SlowLog accepted")
	}
}

// itemBytes flattens ranked items for byte-level comparison.
func itemBytes(items []topk.Item) []byte {
	var buf bytes.Buffer
	for _, it := range items {
		binary.Write(&buf, binary.LittleEndian, int64(it.ID))
		binary.Write(&buf, binary.LittleEndian, math.Float64bits(it.Score))
	}
	return buf.Bytes()
}
