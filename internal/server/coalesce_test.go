package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"figfusion/internal/api"
	"figfusion/internal/topk"
)

// TestCoalescerSingleFlight: a follower that arrives while an identical
// search is in flight joins it and receives the leader's results; the
// engine runs once.
func TestCoalescerSingleFlight(t *testing.T) {
	var gen atomic.Uint64
	c := newCoalescer(16, gen.Load, nil)
	key := searchKey{query: "id:5", k: 4}
	var runs atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	want := []topk.Item{{ID: 1, Score: 2.5}, {ID: 2, Score: 1.5}}
	run := func(ctx context.Context) ([]topk.Item, bool, error) {
		runs.Add(1)
		close(entered)
		<-release
		return want, false, nil
	}
	type result struct {
		items []topk.Item
		err   error
	}
	leaderDone := make(chan result, 1)
	go func() {
		items, _, err := c.do(context.Background(), key, run)
		leaderDone <- result{items, err}
	}()
	<-entered // the leader is now mid-execution
	followerDone := make(chan result, 1)
	go func() {
		items, _, err := c.do(context.Background(), key, func(ctx context.Context) ([]topk.Item, bool, error) {
			t.Error("follower ran its own search")
			return nil, false, nil
		})
		followerDone <- result{items, err}
	}()
	// The follower must be waiting on the flight, not running. There is no
	// portable way to observe "blocked", but releasing the leader and
	// checking the run counter afterwards catches a second execution.
	close(release)
	for _, ch := range []chan result{leaderDone, followerDone} {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.items) != len(want) || r.items[0] != want[0] {
			t.Errorf("items = %+v, want %+v", r.items, want)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("search ran %d times, want 1", got)
	}
	// A third call after completion is a cache hit — still one run.
	items, _, err := c.do(context.Background(), key, run)
	if err != nil || len(items) != 2 {
		t.Fatalf("cached call: %v, %v", items, err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("cache hit re-ran the search (%d runs)", got)
	}
}

// TestCoalescerGenerationInvalidation: bumping the model generation makes
// every cached entry stale — the next identical query runs the engine
// again; a result computed across the bump never enters the cache.
func TestCoalescerGenerationInvalidation(t *testing.T) {
	var gen atomic.Uint64
	c := newCoalescer(16, gen.Load, nil)
	key := searchKey{query: "id:5", k: 4}
	var runs atomic.Int64
	run := func(ctx context.Context) ([]topk.Item, bool, error) {
		runs.Add(1)
		return []topk.Item{{ID: 1, Score: 1}}, false, nil
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.do(context.Background(), key, run); err != nil {
			t.Fatal(err)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("pre-bump runs = %d, want 1", got)
	}
	gen.Add(1) // an insert landed
	if _, _, err := c.do(context.Background(), key, run); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("post-bump runs = %d, want 2", got)
	}
	// A result computed across a bump is shared but not cached: the next
	// call at the new generation must run again. A fresh key avoids the
	// still-valid cache entry from the run above.
	key2 := searchKey{query: "id:6", k: 4}
	bumpMid := func(ctx context.Context) ([]topk.Item, bool, error) {
		runs.Add(1)
		gen.Add(1)
		return []topk.Item{{ID: 2, Score: 1}}, false, nil
	}
	if _, _, err := c.do(context.Background(), key2, bumpMid); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.do(context.Background(), key2, run); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 4 {
		t.Errorf("mid-flight bump runs = %d, want 4 (stale result must not be cached)", got)
	}
}

// TestCoalescerPartialNotCached: degraded (partial) answers are shared
// with concurrent followers but never cached — the next request re-asks a
// cluster that may have healed.
func TestCoalescerPartialNotCached(t *testing.T) {
	var gen atomic.Uint64
	c := newCoalescer(16, gen.Load, nil)
	key := searchKey{query: "id:5", k: 4}
	var runs atomic.Int64
	partialRun := func(ctx context.Context) ([]topk.Item, bool, error) {
		runs.Add(1)
		return []topk.Item{{ID: 1, Score: 1}}, true, nil
	}
	if _, partial, err := c.do(context.Background(), key, partialRun); err != nil || !partial {
		t.Fatalf("partial = %v, err = %v", partial, err)
	}
	if _, _, err := c.do(context.Background(), key, partialRun); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("runs = %d, want 2 (partial answers must not be cached)", got)
	}
}

// TestCoalescedSearchHTTP drives concurrent identical queries through the
// full HTTP stack: every response is byte-identical, the engine executes
// fewer times than requests arrive, and an insert invalidates the cache.
func TestCoalescedSearchHTTP(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := rawBody(t, h, "GET", "/v1/search?id=3&k=5", nil)
			if code != http.StatusOK {
				t.Errorf("request %d: status = %d", i, code)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("response %d differs: %s vs %s", i, bodies[i], bodies[0])
		}
	}
	reg := s.Registry()
	total := reg.Counter("retrieval.search.total").Value()
	misses := reg.Counter("server.coalesce.misses").Value()
	hits := reg.Counter("server.coalesce.hits").Value()
	shared := reg.Counter("server.coalesce.shared").Value()
	if total != misses {
		t.Errorf("engine ran %d times but misses = %d", total, misses)
	}
	if hits+shared+misses != n {
		t.Errorf("hits %d + shared %d + misses %d != %d requests", hits, shared, misses, n)
	}
	// Every request after the first either joined the flight or hit the
	// cache; with an 8-way burst at least one must have been deduplicated.
	if hits+shared == 0 {
		t.Error("no request was coalesced")
	}

	// An insert bumps the corpus-global generation: the cached entry is
	// stale and the next identical query runs the engine again.
	ins, err := json.Marshal(api.InsertRequest{Tags: []string{"topic00tag00"}, Month: 1})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := rawBody(t, h, "POST", "/v1/objects", ins); code != http.StatusCreated {
		t.Fatalf("insert: status = %d, body %s", code, body)
	}
	if code, _ := rawBody(t, h, "GET", "/v1/search?id=3&k=5", nil); code != http.StatusOK {
		t.Fatal("post-insert search failed")
	}
	if got := reg.Counter("retrieval.search.total").Value(); got != total+1 {
		t.Errorf("post-insert engine runs = %d, want %d (cache must miss after a generation bump)", got, total+1)
	}
	if got := reg.Counter("server.coalesce.misses").Value(); got != misses+1 {
		t.Errorf("post-insert misses = %d, want %d", got, misses+1)
	}
}
