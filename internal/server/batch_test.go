package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"figfusion/internal/api"
)

// rawBody performs a request and returns the raw response bytes.
func rawBody(t *testing.T, h http.Handler, method, target string, body []byte) (int, []byte) {
	t.Helper()
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// batchQueries is the identity-test workload: ID queries, a text query, an
// exclusion and a TA query — every request shape the wire search accepts.
func batchQueries() []api.SearchRequest {
	return []api.SearchRequest{
		{ID: int64p(5), K: 4},
		{Text: "topic00tag00 topic00tag01", K: 3},
		{ID: int64p(9), K: 5, Exclude: int64p(2)},
		{ID: int64p(17), K: 4, TA: true},
		{ID: int64p(5), K: 4}, // duplicate of the first — same bytes again
	}
}

// assertBatchByteIdentity drives every query through POST /v1/search
// sequentially and through POST /v1/search/batch, and requires each batch
// entry to be byte-identical to its sequential response body.
func assertBatchByteIdentity(t *testing.T, h http.Handler, queries []api.SearchRequest) {
	t.Helper()
	sequential := make([][]byte, len(queries))
	for i, q := range queries {
		body, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		code, resp := rawBody(t, h, "POST", "/v1/search", body)
		if code != http.StatusOK {
			t.Fatalf("sequential query %d: status = %d, body %s", i, code, resp)
		}
		sequential[i] = bytes.TrimSpace(resp)
	}
	body, err := json.Marshal(api.BatchSearchRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	code, resp := rawBody(t, h, "POST", "/v1/search/batch", body)
	if code != http.StatusOK {
		t.Fatalf("batch: status = %d, body %s", code, resp)
	}
	var batch struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(resp, &batch); err != nil {
		t.Fatalf("batch: bad JSON %s: %v", resp, err)
	}
	if len(batch.Results) != len(queries) {
		t.Fatalf("batch answered %d results for %d queries", len(batch.Results), len(queries))
	}
	for i := range queries {
		if got := bytes.TrimSpace(batch.Results[i]); !bytes.Equal(got, sequential[i]) {
			t.Errorf("query %d: batch %s != sequential %s", i, got, sequential[i])
		}
	}
}

// TestBatchByteIdentitySingleEngine: every entry of a batch response is
// byte-identical to the uncached sequential POST /v1/search answer on a
// single-engine server — the Prepare-amortized path changes cost, never
// bytes. Coalescing is off so the sequential side is genuinely uncached.
func TestBatchByteIdentitySingleEngine(t *testing.T) {
	opts := DefaultOptions()
	opts.Coalesce = false
	s, _ := testServerOpts(t, opts)
	assertBatchByteIdentity(t, s.Handler(), batchQueries())
}

// TestBatchByteIdentitySharded: the same identity holds across a 2-shard
// router, where the batch loops the dispatch path instead of holding one
// engine lock.
func TestBatchByteIdentitySharded(t *testing.T) {
	opts := DefaultOptions()
	opts.Coalesce = false
	s, _ := testShardedServerOpts(t, 2, opts)
	assertBatchByteIdentity(t, s.Handler(), batchQueries())
}

// TestBatchByteIdentityAcrossInsert: the identity survives an insert — at
// the new model generation both the sequential and the batch path answer
// the post-insert truth (and with coalescing on, the cache's generation
// stamp keeps pre-insert entries from leaking into either side).
func TestBatchByteIdentityAcrossInsert(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	queries := batchQueries()
	assertBatchByteIdentity(t, h, queries)
	ins, err := json.Marshal(api.InsertRequest{Tags: []string{"topic00tag00", "topic00tag01"}, Month: 3})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := rawBody(t, h, "POST", "/v1/objects", ins); code != http.StatusCreated {
		t.Fatalf("insert: status = %d, body %s", code, body)
	}
	assertBatchByteIdentity(t, h, queries)
}

// TestBatchValidation pins the batch error surface: the whole batch fails
// with 400/invalid_argument naming the offending query, and never
// partially executes.
func TestBatchValidation(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	tooMany := api.BatchSearchRequest{Queries: make([]api.SearchRequest, api.MaxBatchQueries+1)}
	for i := range tooMany.Queries {
		tooMany.Queries[i] = api.SearchRequest{ID: int64p(0), K: 1}
	}
	tooManyBody, err := json.Marshal(tooMany)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		body    []byte
		wantMsg string
	}{
		{"bad JSON", []byte("{"), "bad JSON"},
		{"empty", []byte(`{"queries":[]}`), "at least one"},
		{"oversized", tooManyBody, "limit"},
		{"bad k", []byte(`{"queries":[{"id":1,"k":3},{"id":2,"k":0}]}`), "query 1"},
		{"unresolvable", []byte(`{"queries":[{"id":1,"k":3},{"id":999999,"k":3}]}`), "query 1"},
	}
	for _, tc := range cases {
		var resp api.ErrorResponse
		code := doJSON(t, h, "POST", "/v1/search/batch", tc.body, &resp)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, code)
			continue
		}
		if resp.Error.Code != api.CodeInvalidArgument {
			t.Errorf("%s: code = %q", tc.name, resp.Error.Code)
		}
		if tc.wantMsg != "" && !bytes.Contains([]byte(resp.Error.Message), []byte(tc.wantMsg)) {
			t.Errorf("%s: message %q does not mention %q", tc.name, resp.Error.Message, tc.wantMsg)
		}
	}
}
