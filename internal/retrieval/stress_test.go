package retrieval

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"figfusion/internal/media"
)

// TestStressConcurrentSearchPaths hammers every read path of a shared
// engine from many goroutines at once. Run under the race detector
// (`make race`, CI) it proves the documented contract that an Engine is
// safe for concurrent searches — including the model's lazily filled
// cosine, CorS and smoothing memos and the parallel SearchScan fan-out.
func TestStressConcurrentSearchPaths(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})
	const (
		workers = 8
		rounds  = 6
	)
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := d.Corpus.Object(media.ObjectID((w*rounds + r) % d.Corpus.Len()))
				switch r % 4 {
				case 0:
					if len(e.Search(q, 5, q.ID)) == 0 {
						t.Error("Search returned nothing")
						return
					}
				case 1:
					e.SearchTA(q, 5, q.ID)
				case 2:
					e.SearchScan(q, 5, q.ID)
				case 3:
					e.SearchMergeFull(q, 5, q.ID)
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if got := done.Load(); got != workers*rounds {
		t.Fatalf("completed %d searches, want %d", got, workers*rounds)
	}
}

// TestStressSharedScorerCaches aims the contention specifically at the
// model's memoisation maps: every goroutine scores the same block of
// queries — half through the engine, half through a WithParams clone, both
// filling the one model's memos — so almost every access after the first
// is a read hit racing concurrent fills. An insert between two rounds
// makes everything round one memoised stale; round two, racing to refill
// under the new generation, must score exactly like a cold model.
func TestStressSharedScorerCaches(t *testing.T) {
	d := testData(t)
	queries := make([]*media.Object, 6)
	for i := range queries {
		queries[i] = d.Corpus.Object(media.ObjectID(i))
	}
	// pair returns an engine and its clone with other parameters.
	pair := func() [2]*Engine {
		e := newEngine(t, d, Config{})
		params := e.Scorer.Params
		params.Alpha = 0.5
		clone, err := e.WithParams(params)
		if err != nil {
			t.Fatal(err)
		}
		return [2]*Engine{e, clone}
	}
	hammer := func(engines [2]*Engine) [10][]float64 {
		var out [10][]float64
		var wg sync.WaitGroup
		for w := range out {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				e := engines[w%2]
				for _, q := range queries {
					cliques := e.QueryCliques(q)
					for i := 0; i < 10; i++ {
						out[w] = append(out[w], e.Scorer.Score(cliques, d.Corpus.Object(media.ObjectID(i))))
					}
				}
			}(w)
		}
		wg.Wait()
		return out
	}
	warm := pair()
	before := hammer(warm)
	feats, counts := cloneFeatures(d, d.Corpus.Object(7))
	if _, err := warm[0].Insert(feats, counts, 3); err != nil {
		t.Fatal(err)
	}
	got, want := hammer(warm), hammer(pair())
	for w := range want {
		if !reflect.DeepEqual(got[w], want[w]) {
			t.Fatalf("goroutine %d: the warm model scores %v after the insert, a cold one %v", w, got[w], want[w])
		}
	}
	if reflect.DeepEqual(before, want) {
		t.Fatal("the insert changed no score; the staleness check is vacuous")
	}
}
