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
)

// TestStressMixedWorkload drives the full HTTP surface from many
// goroutines at once — searches, object reads, health checks and
// recommendations under the read lock, interleaved with ingestion under
// the write lock. Run under the race detector (`make race`, CI) this is
// the server's concurrency gate: the RWMutex discipline around
// Engine.Insert's global-statistics mutation must hold for every route.
func TestStressMixedWorkload(t *testing.T) {
	s, d := testServer(t)
	h := s.Handler()
	const (
		readers = 8
		rounds  = 12
	)
	recBody, err := json.Marshal(api.RecommendRequest{History: []int64{0, 1, 2}, K: 5, Now: 3})
	if err != nil {
		t.Fatal(err)
	}
	hit := func(method, target string, body []byte) int {
		var req *http.Request
		if body != nil {
			req = httptest.NewRequest(method, target, bytes.NewReader(body))
		} else {
			req = httptest.NewRequest(method, target, nil)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	// Snapshot the corpus size before traffic starts: reading it through
	// d.Corpus mid-run would bypass the server's lock. Inserts only grow
	// the corpus, so ids below the snapshot stay valid throughout.
	batchBody, err := json.Marshal(api.BatchSearchRequest{Queries: []api.SearchRequest{
		{ID: int64p(0), K: 4},
		{Text: "topic01tag01", K: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	initialLen := d.Corpus.Len()
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := (w*rounds + r) % initialLen
				var code int
				switch r % 6 {
				case 0:
					code = hit("GET", fmt.Sprintf("/v1/search?id=%d&k=5", id), nil)
				case 1:
					code = hit("GET", "/v1/healthz", nil)
				case 2:
					code = hit("GET", fmt.Sprintf("/v1/objects/%d", id), nil)
				case 3:
					// Identical across workers: exercises single-flight
					// coalescing and the generation-stamped cache while the
					// writer below invalidates it mid-run.
					code = hit("GET", "/v1/search?text=topic01tag01&k=3", nil)
				case 4:
					code = hit("POST", "/v1/recommend", recBody)
				case 5:
					code = hit("POST", "/v1/search/batch", batchBody)
				}
				// Concurrent inserts grow the corpus, never shrink it, so
				// ids probed here stay valid and every route must succeed.
				if code != http.StatusOK {
					t.Errorf("worker %d round %d: status %d", w, r, code)
					return
				}
			}
		}(w)
	}
	// One writer ingests new objects while the readers run, forcing
	// write-lock handoffs and cache invalidations mid-traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			body, err := json.Marshal(api.InsertRequest{
				Tags:  []string{"topic01tag01", fmt.Sprintf("stress%02d", i)},
				Month: i % 4,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if code := hit("POST", "/v1/objects", body); code != http.StatusCreated {
				t.Errorf("insert %d: status %d", i, code)
				return
			}
		}
	}()
	wg.Wait()
}

// TestStressMetricsScrapeDuringInserts scrapes /v1/metrics and /debug/vars
// while objects are being inserted, on a standalone and on a sharded
// server. The registry's func gauges read live engine state
// (index.resident.bytes walks the index's entry maps that an insert
// writes), so the snapshot has to be taken with the corpus pinned and the
// shard locked; under the race detector an unpinned scrape fails here.
func TestStressMetricsScrapeDuringInserts(t *testing.T) {
	standalone, _ := testServer(t)
	sharded, _ := testShardedServerOpts(t, 2, DefaultOptions())
	for name, s := range map[string]*Server{"standalone": standalone, "sharded": sharded} {
		h := s.Handler()
		hit := func(method, target string, body []byte) int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
			return rec.Code
		}
		inserted := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				target := "/v1/metrics"
				if w%2 == 1 {
					target = "/debug/vars"
				}
				for {
					if code := hit("GET", target, nil); code != http.StatusOK {
						t.Errorf("%s: GET %s: status %d", name, target, code)
						return
					}
					select {
					case <-inserted:
						return
					default:
					}
				}
			}(w)
		}
		for i := 0; i < 24; i++ {
			body := []byte(fmt.Sprintf(`{"tags":["topic01tag01","scrape%02d"],"month":%d}`, i, i%4))
			if code := hit("POST", "/v1/objects", body); code != http.StatusCreated {
				t.Errorf("%s: insert %d: status %d", name, i, code)
				break
			}
		}
		close(inserted)
		wg.Wait()
	}
}
