package recommend

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"figfusion/internal/fig"
	"figfusion/internal/media"
	"figfusion/internal/mrf"
	"figfusion/internal/retrieval"
	"figfusion/internal/topk"
)

// TestRankerMatchesNaive is the differential fence of the one ranking loop
// (mrf.CliqueSet.Rank): through the search, scan and recommend entry
// points, random candidate subsets × workers ∈ {1, 2, 5} × k ∈ {1, 10,
// > |candidates|} must return exactly the items of the naive form — the
// uncompiled reference potential per (clique, candidate), sorted by
// topk.Less. The recommend reference multiplies the Eq. 10 decay onto the
// finished Eq. 9 potential, so folding the multiplier into the CorS weight
// (a different rounding) fails here. A done context must yield ctx.Err()
// and no items on every entry point.
func TestRankerMatchesNaive(t *testing.T) {
	rd := recData(t)
	n := rd.Corpus.Len()
	rng := rand.New(rand.NewSource(16))
	subset := func() []media.ObjectID {
		var ids []media.ObjectID
		for _, i := range rng.Perm(n)[:1+rng.Intn(n)] {
			ids = append(ids, media.ObjectID(i))
		}
		return ids
	}
	// naive ranks candidates by scores[id], the reference score of every
	// corpus object.
	naive := func(scores []float64, candidates []media.ObjectID, k int) []topk.Item {
		var all []topk.Item
		for _, id := range candidates {
			if s := scores[id]; s > 0 {
				all = append(all, topk.Item{ID: id, Score: s})
			}
		}
		sort.Slice(all, func(i, j int) bool { return topk.Less(all[i], all[j]) })
		if len(all) > k {
			all = all[:k]
		}
		return all
	}
	check := func(t *testing.T, label string, got, want []topk.Item) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: rank %d = %+v, want %+v", label, i, got[i], want[i])
			}
		}
	}
	ks := func(candidates int) []int { return []int{1, 10, candidates + 3} }
	workers := []int{1, 2, 5}

	engines := make([]*retrieval.Engine, len(workers))
	for i, w := range workers {
		cfg := retrieval.Config{Workers: w}
		if i > 0 {
			cfg.Index = engines[0].Index
		}
		e, err := retrieval.NewEngine(rd.Model(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	ref := engines[0]
	queryScores := func(q *media.Object) ([]fig.Clique, []float64) {
		cliques := ref.QueryCliques(q)
		scores := make([]float64, n)
		for id := range scores {
			scores[id] = ref.Scorer.Score(cliques, rd.Corpus.Object(media.ObjectID(id)))
		}
		return cliques, scores
	}

	t.Run("search", func(t *testing.T) {
		for _, qid := range []media.ObjectID{3, 57, 211} {
			q := rd.Corpus.Object(qid)
			cliques, scores := queryScores(q)
			// Section 3.5's candidate set: every object but the query on
			// some query clique's posting list.
			var candidates []media.ObjectID
			for id := media.ObjectID(0); int(id) < n; id++ {
				for _, c := range cliques {
					entry, ok := ref.Index.LookupKey(c.Key())
					if ok && id != qid && containsID(entry.Objects, id) {
						candidates = append(candidates, id)
						break
					}
				}
			}
			for i, e := range engines {
				for _, k := range ks(len(candidates)) {
					check(t, label("search", qid, workers[i], k), e.Search(q, k, qid), naive(scores, candidates, k))
				}
			}
		}
	})

	t.Run("scan", func(t *testing.T) {
		for _, qid := range []media.ObjectID{3, 57, 211} {
			q := rd.Corpus.Object(qid)
			_, scores := queryScores(q)
			for round := 0; round < 4; round++ {
				candidates := subset()
				for i, e := range engines {
					for _, k := range ks(len(candidates)) {
						check(t, label("scan", qid, workers[i], k), e.SearchAmong(q, candidates, k), naive(scores, candidates, k))
					}
				}
			}
		}
	})

	params := mrf.DefaultParams()
	params.Delta = 0.6
	r := newRec(t, rd, Config{Temporal: true, Params: params})
	hist := rd.HistoryObjects(rd.Profiles[0])
	prof := r.BuildProfile(hist, rd.Now)

	t.Run("recommend", func(t *testing.T) {
		// The profile's distinct cliques in first-occurrence order, which is
		// how BuildProfile aligns them with prof.decay.
		var cliques []fig.Clique
		seen := make(map[string]bool)
		for _, c := range fig.ProfileCliques(hist, r.Model, r.buildOpts, r.enumOpts) {
			if !seen[c.Key()] {
				seen[c.Key()] = true
				cliques = append(cliques, c)
			}
		}
		if len(cliques) != prof.Len() {
			t.Fatalf("%d distinct cliques, profile has %d", len(cliques), prof.Len())
		}
		scores := make([]float64, n)
		for id := range scores {
			o := rd.Corpus.Object(media.ObjectID(id))
			for i, c := range cliques {
				scores[id] += prof.decay[i] * r.Scorer.Potential(c, o)
			}
		}
		for round := 0; round < 4; round++ {
			candidates := subset()
			for _, k := range ks(len(candidates)) {
				want := naive(scores, candidates, k)
				got, err := r.RecommendProfile(context.Background(), prof, candidates, k)
				if err != nil {
					t.Fatal(err)
				}
				check(t, label("recommend", -1, 0, k), got, want)
				for _, w := range workers {
					got, err := prof.cs.Rank(context.Background(), candidates, k, w, nil)
					if err != nil {
						t.Fatal(err)
					}
					check(t, label("profile rank", -1, w, k), got, want)
				}
			}
		}
	})

	t.Run("done context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		q := rd.Corpus.Object(3)
		for i, e := range engines {
			for name, search := range map[string]func() ([]topk.Item, error){
				"search": func() ([]topk.Item, error) { return e.SearchContext(ctx, q, 10, q.ID) },
				"scan":   func() ([]topk.Item, error) { return e.SearchScanContext(ctx, q, 10, q.ID) },
			} {
				if got, err := search(); !errors.Is(err, context.Canceled) || got != nil {
					t.Errorf("%s workers=%d: got %d items, err %v; want none and context.Canceled", name, workers[i], len(got), err)
				}
			}
		}
		if got, err := r.RecommendProfile(ctx, prof, rd.Candidates, 10); !errors.Is(err, context.Canceled) || got != nil {
			t.Errorf("recommend: got %d items, err %v; want none and context.Canceled", len(got), err)
		}
	})
}

func containsID(sorted []media.ObjectID, id media.ObjectID) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= id })
	return i < len(sorted) && sorted[i] == id
}

func label(path string, q media.ObjectID, workers, k int) string {
	return fmt.Sprintf("%s q=%d workers=%d k=%d", path, q, workers, k)
}
