package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"figfusion/internal/api"
	"figfusion/internal/dataset"
	"figfusion/internal/retrieval"
)

// TestMetricsShape drives a known request sequence and pins what
// /v1/metrics must report afterwards: per-route request/error counters,
// per-route and per-stage latency histograms with non-zero counts, the
// query-path counters, and the cache gauges — on a standalone server and on
// a 2-shard one, where every shard searches the query but the query is
// prepared once.
func TestMetricsShape(t *testing.T) {
	t.Run("standalone", func(t *testing.T) {
		s, _ := testServer(t)
		testMetricsShape(t, s, 1)
	})
	t.Run("shards=2", func(t *testing.T) {
		s, _ := testShardedServer(t, 2)
		testMetricsShape(t, s, 2)
	})
}

func testMetricsShape(t *testing.T, s *Server, shards uint64) {
	h := s.Handler()

	// Known sequence: 3 good searches, 1 bad search, 1 healthz.
	for i := 0; i < 3; i++ {
		if code := doJSON(t, h, "GET", "/v1/search?id=5&k=4", nil, nil); code != http.StatusOK {
			t.Fatalf("warm search %d: status = %d", i, code)
		}
	}
	if code := doJSON(t, h, "GET", "/v1/search", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad search: status = %d", code)
	}
	if code := doJSON(t, h, "GET", "/v1/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz: status = %d", code)
	}

	var resp MetricsResponse
	if code := doJSON(t, h, "GET", "/v1/metrics", nil, &resp); code != http.StatusOK {
		t.Fatalf("metrics: status = %d", code)
	}
	m := resp.Metrics

	if got := m.Counters["http.search.requests"]; got != 4 {
		t.Errorf("http.search.requests = %d, want 4", got)
	}
	if got := m.Counters["http.search.errors"]; got != 1 {
		t.Errorf("http.search.errors = %d, want 1", got)
	}
	if got := m.Counters["http.healthz.requests"]; got != 1 {
		t.Errorf("http.healthz.requests = %d, want 1", got)
	}
	hs, ok := m.Histograms["http.search.latency"]
	if !ok || hs.Count != 4 || len(hs.Buckets) == 0 {
		t.Errorf("http.search.latency = %+v", hs)
	}

	// Engine-side: the three identical searches coalesce — the first is a
	// cache miss that runs the indexed path once (one leg per shard), the
	// other two are served from the generation-stamped result cache without
	// touching the engine.
	if got := m.Counters["retrieval.search.total"]; got != shards {
		t.Errorf("retrieval.search.total = %d, want %d", got, shards)
	}
	if got := m.Counters["retrieval.search.path.index"]; got != shards {
		t.Errorf("retrieval.search.path.index = %d, want %d", got, shards)
	}
	if got := m.Counters["retrieval.candidates.scored"]; got == 0 {
		t.Error("retrieval.candidates.scored = 0")
	}
	if got := m.Histograms["retrieval.search.latency"].Count; got != shards {
		t.Errorf("retrieval.search.latency count = %d, want %d", got, shards)
	}
	// One query reached the engines, so one prepare span — not one per
	// shard, and not zero.
	if got := m.Histograms["retrieval.stage.prepare"].Count; got != 1 {
		t.Errorf("retrieval.stage.prepare count = %d, want 1 (the queries that reached the engines)", got)
	}
	if got := m.Histograms["shard.prepare.latency"].Count; got != 1 {
		t.Errorf("shard.prepare.latency count = %d, want 1", got)
	}
	if got := m.Counters["server.coalesce.misses"]; got != 1 {
		t.Errorf("server.coalesce.misses = %d, want 1", got)
	}
	if got := m.Counters["server.coalesce.hits"]; got != 2 {
		t.Errorf("server.coalesce.hits = %d, want 2", got)
	}
	if got := m.Histograms["retrieval.stage.score"].Count; got == 0 {
		t.Error("retrieval.stage.score count = 0")
	}

	// Scorer cache gauges are folded in as func gauges.
	for _, name := range []string{
		"cache.cors.hits", "cache.cors.misses",
		"cache.smooth.hits", "cache.smooth.misses",
	} {
		if _, ok := m.Gauges[name]; !ok {
			t.Errorf("gauge %s missing", name)
		}
	}

	// Slow log: present, never null, threshold echoed.
	if resp.SlowQueries == nil {
		t.Error("slowQueries is null")
	}
	if resp.SlowThreshold != DefaultOptions().SlowQuery.String() {
		t.Errorf("slowThreshold = %q", resp.SlowThreshold)
	}
}

// TestMetricsDisabled: -metrics=false answers 503 unavailable on
// /v1/metrics and serves searches without a registry.
func TestMetricsDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.Metrics = false
	s, _ := testShardedServerOpts(t, 1, opts)
	if s.Registry() != nil {
		t.Fatal("registry attached despite -metrics=false")
	}
	if code := doJSON(t, s.Handler(), "GET", "/v1/search?id=5&k=4", nil, nil); code != http.StatusOK {
		t.Errorf("search status = %d", code)
	}
	code, resp := doError(t, s.Handler(), "GET", "/v1/metrics")
	if code != http.StatusServiceUnavailable {
		t.Errorf("metrics status = %d, want 503", code)
	}
	if resp.Error.Code != api.CodeUnavailable {
		t.Errorf("code = %q, want %q", resp.Error.Code, api.CodeUnavailable)
	}
}

// doError performs a request and decodes the error envelope regardless
// of status class (doJSON skips decoding on 5xx).
func doError(t *testing.T, h http.Handler, method, target string) (int, api.ErrorResponse) {
	t.Helper()
	req := httptest.NewRequest(method, target, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp api.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, target, rec.Body.String(), err)
	}
	return rec.Code, resp
}

// TestQueryTimeout: an unmeetable -query-timeout cancels the sharded
// search mid-flight and surfaces as 504 deadline_exceeded.
func TestQueryTimeout(t *testing.T) {
	opts := DefaultOptions()
	opts.QueryTimeout = time.Nanosecond
	s, _ := testShardedServerOpts(t, 2, opts)
	code, resp := doError(t, s.Handler(), "GET", "/v1/search?id=5&k=4")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", code)
	}
	if resp.Error.Code != api.CodeDeadlineExceeded {
		t.Errorf("code = %q, want %q", resp.Error.Code, api.CodeDeadlineExceeded)
	}
	// Timeouts never enter the coalescer's result cache: the identical
	// retry fails with the same budget rather than replaying a stale error.
	if code, resp := doError(t, s.Handler(), "GET", "/v1/search?id=5&k=4"); code != http.StatusGatewayTimeout {
		t.Errorf("repeat search status = %d, want 504", code)
	} else if resp.Error.Code != api.CodeDeadlineExceeded {
		t.Errorf("repeat search code = %q", resp.Error.Code)
	}
}

// TestEnvelopeOnMuxErrors: 404s and 405s generated by the mux itself
// (no handler involved) still answer the JSON envelope.
func TestEnvelopeOnMuxErrors(t *testing.T) {
	s, _ := testServer(t)
	cases := []struct {
		method, target string
		status         int
		code           string
	}{
		{"GET", "/v1/nope", http.StatusNotFound, api.CodeNotFound},
		// The pre-v1 unversioned routes are plain unknown paths now.
		{"GET", "/search?id=5&k=2", http.StatusNotFound, api.CodeNotFound},
		{"DELETE", "/v1/search", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},
	}
	for _, tc := range cases {
		var resp api.ErrorResponse
		if got := doJSON(t, s.Handler(), tc.method, tc.target, nil, &resp); got != tc.status {
			t.Errorf("%s %s: status = %d, want %d", tc.method, tc.target, got, tc.status)
		}
		if resp.Error.Code != tc.code {
			t.Errorf("%s %s: code = %q, want %q", tc.method, tc.target, resp.Error.Code, tc.code)
		}
	}
}

// TestObjectV1PathParam: /v1/objects/{id} resolves via the path value.
func TestObjectV1PathParam(t *testing.T) {
	s, _ := testServer(t)
	var resp api.ObjectResponse
	if code := doJSON(t, s.Handler(), "GET", "/v1/objects/7", nil, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.ID != 7 {
		t.Errorf("ID = %d", resp.ID)
	}
	var eresp api.ErrorResponse
	if code := doJSON(t, s.Handler(), "GET", "/v1/objects/zzz", nil, &eresp); code != http.StatusNotFound {
		t.Errorf("bad id status = %d", code)
	}
	if eresp.Error.Code != api.CodeNotFound {
		t.Errorf("bad id code = %q", eresp.Error.Code)
	}
}

// TestPprofGate: /debug/pprof/ is absent by default and mounts with
// Options.Pprof.
func TestPprofGate(t *testing.T) {
	s, _ := testServer(t)
	if code := doJSON(t, s.Handler(), "GET", "/debug/pprof/", nil, nil); code != http.StatusNotFound {
		t.Errorf("pprof mounted without the flag: status = %d", code)
	}
	opts := DefaultOptions()
	opts.Pprof = true
	sp, _ := testShardedServerOpts(t, 1, opts)
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	sp.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("pprof index status = %d", rec.Code)
	}
}

// TestOptionsValidate walks the rejection surface of Options.Validate.
func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	mutate := func(f func(*Options)) Options {
		o := DefaultOptions()
		f(&o)
		return o
	}
	cases := []struct {
		name string
		o    Options
		want string
	}{
		{"empty addr", mutate(func(o *Options) { o.Addr = "" }), "addr"},
		{"zero objects", mutate(func(o *Options) { o.Objects = 0 }), "objects"},
		{"zero shards", mutate(func(o *Options) { o.Shards = 0 }), "shards"},
		{"negative workers", mutate(func(o *Options) { o.Workers = -1 }), "workers"},
		{"zero drain", mutate(func(o *Options) { o.Drain = 0 }), "drain"},
		{"negative timeout", mutate(func(o *Options) { o.QueryTimeout = -time.Second }), "query-timeout"},
		{"negative slow", mutate(func(o *Options) { o.SlowQuery = -time.Second }), "slow-query"},
		{"negative inflight", mutate(func(o *Options) { o.MaxInflight = -1 }), "max-inflight"},
		{"negative queue", mutate(func(o *Options) { o.MaxQueue = -1 }), "max-queue"},
	}
	for _, tc := range cases {
		err := tc.o.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// A corpus file lifts the generated-corpus requirement.
	withData := mutate(func(o *Options) { o.Data = "corpus.gob"; o.Objects = 0 })
	if err := withData.Validate(); err != nil {
		t.Errorf("data-backed options rejected: %v", err)
	}
	// The one serving mode resolves to blockmax.
	if m, err := DefaultOptions().PruningMode(); err != nil || m != retrieval.PruneBlockMax {
		t.Errorf("serving default pruning resolved to %v, %v; want blockmax", m, err)
	}
}

// TestFlagSurface pins the exact flag set Options.Flags registers, the way
// TestWireFieldNamesPinned pins the wire: adding, renaming or removing a
// figserver flag is an explicit edit of this list.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "bootstrap", "coalesce", "data", "drain", "hedge-after",
		"index", "max-inflight", "max-queue", "metrics", "node-name",
		"nodes", "objects", "pprof", "probe-interval", "query-timeout",
		"role", "seed", "shards", "slow-query", "workers",
	}
	fs := flag.NewFlagSet("figserver", flag.ContinueOnError)
	opts := DefaultOptions()
	opts.Flags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // lexical order
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registered flags (%d) = %v\nwant (%d) %v", len(got), got, len(want), want)
	}
}

// TestMetricsPruneCounters: a server fronting a pruned engine reports the
// block skipper's work through retrieval.prune.blocks.skipped on
// /v1/metrics, driven through the wire protocol's ta selector.
func TestMetricsPruneCounters(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.NumObjects = 200
	cfg.NumTopics = 5
	cfg.TagsPerTopic = 8
	cfg.NoiseTags = 24
	cfg.UsersPerTopic = 8
	cfg.VisualVocab = 12
	cfg.VocabTrainImages = 40
	cfg.ImageBlocks = 2
	cfg.KMeansIters = 8
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := retrieval.NewEngine(d.Model(), retrieval.Config{Pruning: retrieval.PruneBlockMax})
	if err != nil {
		t.Fatal(err)
	}
	h := New(engine, DefaultOptions()).Handler()
	for i := 0; i < 10; i++ {
		body := []byte(fmt.Sprintf(`{"id":%d,"k":5,"ta":true}`, i))
		if code := doJSON(t, h, "POST", "/v1/search", body, nil); code != http.StatusOK {
			t.Fatalf("search %d: status = %d", i, code)
		}
	}
	var resp MetricsResponse
	if code := doJSON(t, h, "GET", "/v1/metrics", nil, &resp); code != http.StatusOK {
		t.Fatalf("metrics: status = %d", code)
	}
	if got := resp.Metrics.Counters["retrieval.prune.blocks.skipped"]; got == 0 {
		t.Error("retrieval.prune.blocks.skipped = 0")
	}
}
