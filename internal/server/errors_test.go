package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"figfusion/internal/api"
	"figfusion/internal/dataset"
	"figfusion/internal/shard"
)

// testShardedServer builds a server over a 2-shard router on the same
// corpus config as testServer.
func testShardedServer(t testing.TB, shards int) (*Server, *dataset.Dataset) {
	t.Helper()
	return testShardedServerOpts(t, shards, DefaultOptions())
}

// testShardedServerOpts is the same fixture with a custom Options (used
// by the query-timeout tests).
func testShardedServerOpts(t testing.TB, shards int, opts Options) (*Server, *dataset.Dataset) {
	t.Helper()
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
	r, err := shard.NewRouter(d.Model(), shard.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return NewSharded(r, opts), d
}

// TestMethodNotAllowed pins one 405 per route: the method-qualified mux
// patterns must reject the wrong verb rather than fall through to a
// handler that would misparse the request.
func TestMethodNotAllowed(t *testing.T) {
	s, _ := testServer(t)
	cases := []struct{ method, target string }{
		{"POST", "/v1/healthz"},
		{"PUT", "/v1/search?id=1"},
		{"POST", "/v1/objects/1"},
		{"GET", "/v1/objects"},
		{"DELETE", "/v1/objects"},
		{"GET", "/v1/recommend"},
		{"PUT", "/v1/search/batch"},
	}
	for _, tc := range cases {
		if code := doJSON(t, s.Handler(), tc.method, tc.target, nil, nil); code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want %d", tc.method, tc.target, code, http.StatusMethodNotAllowed)
		}
	}
}

// TestNonCanonicalPathsAnswerEnvelope: paths the mux would redirect to
// their cleaned form ("." and ".." segments, doubled slashes) answer the
// not_found JSON envelope, not a text/html 301, as does a trailing slash
// (canonical, but no route); canonical route paths are still served.
func TestNonCanonicalPathsAnswerEnvelope(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	for _, target := range []string{"/v1/objects/.", "/v1/objects/..", "/v1/./search", "/v1//search", "/v1/search/"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		var env api.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusNotFound ||
			rec.Header().Get("Content-Type") != "application/json" || env.Error.Code != api.CodeNotFound {
			t.Errorf("GET %s: %d %s %q, want 404 with the not_found envelope", target, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
		}
	}
	if code := doJSON(t, h, "GET", "/v1/objects/1", nil, nil); code != http.StatusOK {
		t.Errorf("GET /v1/objects/1: status %d, want 200", code)
	}
}

// TestInsertMalformed walks the /v1/objects error surface: syntactically
// broken JSON, type mismatches, feature-free objects and bad counts all
// answer 400 with the invalid_argument envelope and leave the node as it
// was — the dictionary included, which a rejected insert used to grow.
func TestInsertMalformed(t *testing.T) {
	s, _ := testServer(t)
	healthFeatures := func() float64 {
		var h map[string]interface{}
		if code := doJSON(t, s.Handler(), "GET", "/v1/healthz", nil, &h); code != http.StatusOK {
			t.Fatalf("/v1/healthz: status = %d", code)
		}
		return h["features"].(float64)
	}
	before := healthFeatures()
	cases := []struct {
		name string
		body string
	}{
		{"truncated", `{"tags":["a"`},
		{"not JSON", `tags=a`},
		{"wrong type", `{"tags":"notanarray"}`},
		{"month type", `{"tags":["topic00tag00"],"month":"five"}`},
		{"no features", `{}`},
		{"empty names", `{"tags":["",""],"users":[""]}`},
		{"zero count after a new feature", `{"features":[{"kind":"text","name":"brandnew","count":1},{"kind":"text","name":"x","count":0}]}`},
	}
	for _, tc := range cases {
		var resp api.ErrorResponse
		code := doJSON(t, s.Handler(), "POST", "/v1/objects", []byte(tc.body), &resp)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, code)
		}
		if resp.Error.Code != api.CodeInvalidArgument {
			t.Errorf("%s: error code = %q, want %q", tc.name, resp.Error.Code, api.CodeInvalidArgument)
		}
		if resp.Error.Message == "" {
			t.Errorf("%s: error message missing", tc.name)
		}
	}
	if after := healthFeatures(); after != before {
		t.Errorf("rejected inserts grew the dictionary from %v to %v features", before, after)
	}
}

// TestSearchMissingParams pins the bare-request errors on the GET routes.
func TestSearchMissingParams(t *testing.T) {
	s, _ := testServer(t)
	var resp api.ErrorResponse
	if code := doJSON(t, s.Handler(), "GET", "/v1/search", nil, &resp); code != http.StatusBadRequest {
		t.Errorf("/v1/search: status = %d, want 400", code)
	}
	if resp.Error.Code != api.CodeInvalidArgument || resp.Error.Message == "" {
		t.Errorf("/v1/search: envelope = %+v", resp.Error)
	}
	// text= that normalizes to nothing behaves like unknown text.
	if code := doJSON(t, s.Handler(), "GET", "/v1/search?text=%20%20", nil, nil); code != http.StatusNotFound {
		t.Errorf("blank text: status = %d, want 404", code)
	}
}

// TestShardedHealthz pins the /healthz shape under a sharded backend:
// a shards array whose object counts partition the corpus, plus the
// model generation.
func TestShardedHealthz(t *testing.T) {
	s, d := testShardedServer(t, 2)
	var resp struct {
		Status     string            `json:"status"`
		Objects    int               `json:"objects"`
		Cliques    int               `json:"cliques"`
		Generation uint64            `json:"generation"`
		Shards     []shard.ShardInfo `json:"shards"`
	}
	if code := doJSON(t, s.Handler(), "GET", "/v1/healthz", nil, &resp); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Status != "ok" {
		t.Errorf("status field = %q", resp.Status)
	}
	if resp.Objects != d.Corpus.Len() {
		t.Errorf("objects = %d, want %d", resp.Objects, d.Corpus.Len())
	}
	if len(resp.Shards) != 2 {
		t.Fatalf("shards = %d entries, want 2", len(resp.Shards))
	}
	sum, cliques := 0, 0
	for i, si := range resp.Shards {
		if si.Shard != i {
			t.Errorf("shard[%d].Shard = %d", i, si.Shard)
		}
		sum += si.Objects
		cliques += si.Cliques
	}
	if sum != d.Corpus.Len() {
		t.Errorf("shard objects sum to %d, want %d", sum, d.Corpus.Len())
	}
	if cliques != resp.Cliques {
		t.Errorf("cliques = %d, shard sum = %d", resp.Cliques, cliques)
	}
}

// TestShardedEndToEnd drives the sharded server through the same
// search→insert→search flow the single-engine test uses.
func TestShardedEndToEnd(t *testing.T) {
	s, d := testShardedServer(t, 2)
	var sr api.SearchResponse
	if code := doJSON(t, s.Handler(), "GET", "/v1/search?id=5&k=4", nil, &sr); code != http.StatusOK {
		t.Fatalf("search status = %d", code)
	}
	if len(sr.Results) == 0 {
		t.Fatal("no results")
	}
	body, _ := json.Marshal(api.InsertRequest{Tags: []string{"topic00tag00", "topic00tag01"}, Month: 2})
	var ir api.InsertResponse
	if code := doJSON(t, s.Handler(), "POST", "/v1/objects", body, &ir); code != http.StatusCreated {
		t.Fatalf("insert status = %d", code)
	}
	if int(ir.ID) != d.Corpus.Len()-1 {
		t.Errorf("ID = %d, want %d", ir.ID, d.Corpus.Len()-1)
	}
	var sr2 api.SearchResponse
	target := fmt.Sprintf("/v1/search?text=topic00tag00+topic00tag01&k=%d", d.Corpus.Len())
	if code := doJSON(t, s.Handler(), "GET", target, nil, &sr2); code != http.StatusOK {
		t.Fatalf("post-insert search status = %d", code)
	}
	found := false
	for _, it := range sr2.Results {
		if it.ID == ir.ID {
			found = true
		}
	}
	if !found {
		t.Error("inserted object not searchable through the sharded backend")
	}
}
