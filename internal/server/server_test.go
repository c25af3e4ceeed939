package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"figfusion/internal/api"
	"figfusion/internal/dataset"
	"figfusion/internal/media"
	"figfusion/internal/retrieval"
)

func testServer(t testing.TB) (*Server, *dataset.Dataset) {
	t.Helper()
	return testServerOpts(t, DefaultOptions())
}

// testServerOpts is the single-engine fixture with a custom Options (used
// by the admission tests).
func testServerOpts(t testing.TB, opts Options) (*Server, *dataset.Dataset) {
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
	engine, err := retrieval.NewEngine(d.Model(), retrieval.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return New(engine, opts), d
}

func doJSON(t *testing.T, h http.Handler, method, target string, body []byte, out interface{}) int {
	t.Helper()
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 500 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, target, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func TestHealthz(t *testing.T) {
	s, d := testServer(t)
	var resp map[string]interface{}
	code := doJSON(t, s.Handler(), "GET", "/v1/healthz", nil, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp["status"] != "ok" {
		t.Errorf("status field = %v", resp["status"])
	}
	if int(resp["objects"].(float64)) != d.Corpus.Len() {
		t.Errorf("objects = %v, want %d", resp["objects"], d.Corpus.Len())
	}
	if _, ok := resp["cliques"]; !ok {
		t.Error("cliques stat missing")
	}
}

func TestSearchByID(t *testing.T) {
	s, d := testServer(t)
	var resp api.SearchResponse
	code := doJSON(t, s.Handler(), "GET", "/v1/search?id=5&k=4", nil, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(resp.Results) == 0 || len(resp.Results) > 4 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	for _, it := range resp.Results {
		if it.ID == 5 {
			t.Error("query object returned")
		}
		if it.Score <= 0 {
			t.Errorf("score = %v", it.Score)
		}
		if int(it.ID) >= d.Corpus.Len() {
			t.Errorf("ID out of range: %d", it.ID)
		}
	}
}

func TestSearchByText(t *testing.T) {
	s, _ := testServer(t)
	var resp api.SearchResponse
	code := doJSON(t, s.Handler(), "GET", "/v1/search?text=topic00tag00+topic00tag01&k=3", nil, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(resp.Results) == 0 {
		t.Fatal("no results")
	}
	// Unknown text → 404.
	if code := doJSON(t, s.Handler(), "GET", "/v1/search?text=zebra+quokka", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown text status = %d", code)
	}
}

func TestSearchValidation(t *testing.T) {
	s, _ := testServer(t)
	cases := []struct {
		target string
		want   int
	}{
		{"/v1/search", http.StatusBadRequest},
		{"/v1/search?id=99999", http.StatusBadRequest},
		{"/v1/search?id=abc", http.StatusBadRequest},
		{"/v1/search?id=1&k=0", http.StatusBadRequest},
		{"/v1/search?id=1&k=9999", http.StatusBadRequest},
		{"/v1/search?id=-3", http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := doJSON(t, s.Handler(), "GET", tc.target, nil, nil); code != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.target, code, tc.want)
		}
	}
}

func TestObjectEndpoint(t *testing.T) {
	s, d := testServer(t)
	var resp api.ObjectResponse
	code := doJSON(t, s.Handler(), "GET", "/v1/objects/7", nil, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.ID != 7 {
		t.Errorf("ID = %d", resp.ID)
	}
	if len(resp.Tags) == 0 || len(resp.Users) == 0 || len(resp.VisualWords) == 0 {
		t.Errorf("missing modalities: %+v", resp)
	}
	if resp.Month != d.Corpus.Object(7).Month {
		t.Errorf("month = %d", resp.Month)
	}
	if code := doJSON(t, s.Handler(), "GET", "/v1/objects/zzz", nil, nil); code != http.StatusNotFound {
		t.Errorf("bad id status = %d", code)
	}
}

func TestInsertEndpoint(t *testing.T) {
	s, d := testServer(t)
	before := d.Corpus.Len()
	body, _ := json.Marshal(api.InsertRequest{
		Tags:  []string{"topic00tag00", "topic00tag01"},
		Users: []string{"u_t00_00"},
		Month: 5,
	})
	var resp api.InsertResponse
	code := doJSON(t, s.Handler(), "POST", "/v1/objects", body, &resp)
	if code != http.StatusCreated {
		t.Fatalf("status = %d", code)
	}
	if int(resp.ID) != before {
		t.Errorf("ID = %d, want %d", resp.ID, before)
	}
	// The inserted object is immediately searchable.
	var sr api.SearchResponse
	if code := doJSON(t, s.Handler(), "GET",
		fmt.Sprintf("/v1/search?text=topic00tag00+topic00tag01&k=%d", d.Corpus.Len()), nil, &sr); code != http.StatusOK {
		t.Fatalf("post-insert search status = %d", code)
	}
	found := false
	for _, it := range sr.Results {
		if it.ID == resp.ID {
			found = true
		}
	}
	if !found {
		t.Error("inserted object not searchable")
	}
	// Validation.
	if code := doJSON(t, s.Handler(), "POST", "/v1/objects", []byte("{"), nil); code != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", code)
	}
	empty, _ := json.Marshal(api.InsertRequest{})
	if code := doJSON(t, s.Handler(), "POST", "/v1/objects", empty, nil); code != http.StatusBadRequest {
		t.Errorf("empty insert status = %d", code)
	}
}

func TestConcurrentSearchAndInsert(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w == 0 && i%3 == 0 {
					body, _ := json.Marshal(api.InsertRequest{Tags: []string{"topic01tag01"}})
					req := httptest.NewRequest("POST", "/v1/objects", bytes.NewReader(body))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					continue
				}
				req := httptest.NewRequest("GET", "/v1/search?id=1&k=3", nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("search status = %d", rec.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestRecommendEndpoint(t *testing.T) {
	s, d := testServer(t)
	// History: a handful of month-0 objects of one topic.
	var hist []int64
	for _, o := range d.Corpus.Objects {
		if o.PrimaryTopic == 1 && o.Month < 3 && len(hist) < 5 {
			hist = append(hist, int64(o.ID))
		}
	}
	if len(hist) < 2 {
		t.Skip("not enough topic-1 history in sample")
	}
	body, _ := json.Marshal(api.RecommendRequest{History: hist, K: 5, Now: 3})
	var resp api.SearchResponse
	code := doJSON(t, s.Handler(), "POST", "/v1/recommend", body, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(resp.Results) == 0 {
		t.Fatal("no recommendations")
	}
	histSet := make(map[int64]bool)
	for _, h := range hist {
		histSet[h] = true
	}
	onTopic := 0
	for _, it := range resp.Results {
		if histSet[it.ID] {
			t.Errorf("history object %d recommended back", it.ID)
		}
		if d.Corpus.Object(media.ObjectID(it.ID)).PrimaryTopic == 1 {
			onTopic++
		}
	}
	if onTopic < len(resp.Results)/2 {
		t.Errorf("only %d/%d recommendations on the history topic", onTopic, len(resp.Results))
	}
	// Validation.
	if code := doJSON(t, s.Handler(), "POST", "/v1/recommend", []byte("{"), nil); code != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", code)
	}
	empty, _ := json.Marshal(api.RecommendRequest{K: 5})
	if code := doJSON(t, s.Handler(), "POST", "/v1/recommend", empty, nil); code != http.StatusBadRequest {
		t.Errorf("empty history status = %d", code)
	}
	bad, _ := json.Marshal(api.RecommendRequest{History: []int64{999999}, K: 5})
	if code := doJSON(t, s.Handler(), "POST", "/v1/recommend", bad, nil); code != http.StatusBadRequest {
		t.Errorf("unknown history status = %d", code)
	}
}

// int64p returns a pointer to v, for optional wire fields.
func int64p(v int64) *int64 { return &v }
