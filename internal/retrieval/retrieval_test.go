package retrieval

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"figfusion/internal/corr"
	"figfusion/internal/dataset"
	"figfusion/internal/fig"
	"figfusion/internal/index"
	"figfusion/internal/media"
	"figfusion/internal/mrf"
	"figfusion/internal/topk"
)

func testData(t testing.TB) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumObjects = 150
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
	return d
}

func newEngine(t testing.TB, d *dataset.Dataset, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(d.Model(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSearchFindsTopicMatches(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})
	q := d.Corpus.Object(0)
	results := e.Search(q, 10, q.ID)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	relevant := 0
	for _, it := range results {
		if it.ID == q.ID {
			t.Error("excluded query returned")
		}
		if dataset.Relevant(q, d.Corpus.Object(it.ID)) {
			relevant++
		}
	}
	// With 5 topics, random precision would be ~0.2; the engine must do
	// far better on a planted corpus.
	if relevant < len(results)/2 {
		t.Errorf("only %d/%d relevant", relevant, len(results))
	}
	// Scores are positive and sorted best-first.
	for i, it := range results {
		if it.Score <= 0 {
			t.Errorf("result %d score %v", i, it.Score)
		}
		if i > 0 && topk.Less(results[i], results[i-1]) == false && results[i].Score > results[i-1].Score {
			t.Error("results not sorted")
		}
	}
}

func TestSearchAgreesWithScan(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})
	q := d.Corpus.Object(3)
	idx := e.Search(q, 10, q.ID)
	scan := e.SearchScan(q, 10, q.ID)
	if len(idx) == 0 || len(scan) == 0 {
		t.Fatal("empty results")
	}
	// Indexed search prunes objects sharing no clique with the query and
	// drops cross-clique smoothing, so the exact ID sets can differ; what
	// must hold is that the pruning does not degrade retrieval quality.
	relevant := func(items []topk.Item) int {
		n := 0
		for _, it := range items {
			if dataset.Relevant(q, d.Corpus.Object(it.ID)) {
				n++
			}
		}
		return n
	}
	idxRel, scanRel := relevant(idx), relevant(scan)
	if idxRel < scanRel-3 {
		t.Errorf("indexed search much worse than scan: %d vs %d relevant of %d",
			idxRel, scanRel, len(idx))
	}
	// And some overlap must remain — the two paths rank the same corpus.
	scanSet := make(map[media.ObjectID]bool)
	for _, it := range scan {
		scanSet[it.ID] = true
	}
	common := 0
	for _, it := range idx {
		if scanSet[it.ID] {
			common++
		}
	}
	if common == 0 {
		t.Error("index and scan results are disjoint")
	}
}

func TestSearchMergeFullMatchesSearchTA(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})
	q := d.Corpus.Object(7)
	ta := e.SearchTA(q, 5, q.ID)
	full := e.SearchMergeFull(q, 5, q.ID)
	if len(ta) != len(full) {
		t.Fatalf("lengths differ: %d vs %d", len(ta), len(full))
	}
	for i := range ta {
		if ta[i].ID != full[i].ID {
			t.Errorf("rank %d: TA %v vs full %v", i, ta[i], full[i])
		}
	}
}

func TestSearchExclusion(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})
	q := d.Corpus.Object(1)
	withSelf := e.Search(q, 5, NoExclude)
	// An in-corpus query object almost always tops its own result list.
	found := false
	for _, it := range withSelf {
		if it.ID == q.ID {
			found = true
		}
	}
	if !found {
		t.Error("query object missing from unexcluded results")
	}
	without := e.Search(q, 5, q.ID)
	for _, it := range without {
		if it.ID == q.ID {
			t.Error("excluded object returned")
		}
	}
}

func TestSkipIndexFallsBackToScan(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{SkipIndex: true})
	if e.Index != nil {
		t.Fatal("index built despite SkipIndex")
	}
	q := d.Corpus.Object(2)
	got := e.Search(q, 5, q.ID)
	want := e.SearchScan(q, 5, q.ID)
	if len(got) != len(want) {
		t.Fatalf("lengths differ")
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("rank %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestKindsRestrictedEngine(t *testing.T) {
	d := testData(t)
	textOnly := newEngine(t, d, Config{BuildOpts: fig.Options{Kinds: []media.Kind{media.Text}}})
	q := d.Corpus.Object(4)
	cliques := textOnly.QueryCliques(q)
	corpus := d.Corpus
	for _, c := range cliques {
		for _, f := range c.Feats {
			if corpus.KindOf(f) != media.Text {
				t.Fatalf("non-text feature %v in text-only clique", f)
			}
		}
	}
	if got := textOnly.Search(q, 5, q.ID); len(got) == 0 {
		t.Error("text-only search returned nothing")
	}
}

func TestNewEngineDefaultsParams(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})
	if len(e.Scorer.Params.Lambda) == 0 {
		t.Error("params not defaulted")
	}
}

func TestNewEngineRejectsBadParams(t *testing.T) {
	d := testData(t)
	if _, err := NewEngine(d.Model(), Config{Params: mrf.Params{Lambda: []float64{-1}, Delta: 1}}); err == nil {
		t.Error("want error for invalid params")
	}
}

func TestQueryNotInCorpus(t *testing.T) {
	// An external query object (built from corpus features but not added)
	// must still retrieve.
	d := testData(t)
	e := newEngine(t, d, Config{})
	src := d.Corpus.Object(5)
	ext := media.NewObject(9999, func() []media.FeatureCount {
		fcs := make([]media.FeatureCount, len(src.Feats))
		for i, f := range src.Feats {
			fcs[i] = media.FeatureCount{FID: f, Count: src.Counts[i]}
		}
		return fcs
	}(), src.Month)
	got := e.Search(ext, 5, NoExclude)
	if len(got) == 0 {
		t.Fatal("external query found nothing")
	}
	if got[0].ID != src.ID {
		t.Errorf("clone query should rank its source first, got %v", got[0])
	}
}

func BenchmarkSearchIndexed(b *testing.B) {
	d := testData(b)
	e := newEngine(b, d, Config{})
	q := d.Corpus.Object(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(q, 10, q.ID)
	}
}

func BenchmarkSearchScan(b *testing.B) {
	d := testData(b)
	e := newEngine(b, d, Config{})
	q := d.Corpus.Object(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SearchScan(q, 10, q.ID)
	}
}

func TestSearchInvariants(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})
	for qid := 0; qid < 20; qid++ {
		q := d.Corpus.Object(media.ObjectID(qid))
		for _, k := range []int{1, 5, 25} {
			results := e.Search(q, k, q.ID)
			if len(results) > k {
				t.Fatalf("q=%d k=%d: %d results", qid, k, len(results))
			}
			seen := make(map[media.ObjectID]bool)
			for i, it := range results {
				if it.Score <= 0 {
					t.Fatalf("q=%d: non-positive score %v", qid, it.Score)
				}
				if seen[it.ID] {
					t.Fatalf("q=%d: duplicate result %d", qid, it.ID)
				}
				seen[it.ID] = true
				if i > 0 && results[i-1].Score < it.Score {
					t.Fatalf("q=%d: results not sorted at %d", qid, i)
				}
			}
		}
	}
}

func TestConcurrentSearches(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})
	// Reference results computed serially.
	want := make([][]topk.Item, 10)
	for i := range want {
		q := d.Corpus.Object(media.ObjectID(i))
		want[i] = e.Search(q, 5, q.ID)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 80)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := d.Corpus.Object(media.ObjectID(i))
				got := e.Search(q, 5, q.ID)
				if len(got) != len(want[i]) {
					errs <- fmt.Errorf("query %d: %d results, want %d", i, len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j] != want[i][j] {
						errs <- fmt.Errorf("query %d rank %d: %v != %v", i, j, got[j], want[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestInsertThenSearch(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})
	before := d.Corpus.Len()
	// Clone an existing object's features into a new insert.
	src := d.Corpus.Object(9)
	feats := make([]media.Feature, len(src.Feats))
	counts := make([]int, len(src.Feats))
	for i, fid := range src.Feats {
		feats[i] = d.Corpus.Dict.Feature(fid)
		counts[i] = int(src.Counts[i])
	}
	inserted, err := e.Insert(feats, counts, src.Month)
	if err != nil {
		t.Fatal(err)
	}
	if d.Corpus.Len() != before+1 {
		t.Fatalf("corpus did not grow: %d", d.Corpus.Len())
	}
	if int(inserted.ID) != before {
		t.Fatalf("inserted ID = %d, want %d", inserted.ID, before)
	}
	// The near-duplicate source must retrieve the inserted object at the
	// top through the live index.
	results := e.Search(src, 3, src.ID)
	if len(results) == 0 || results[0].ID != inserted.ID {
		t.Fatalf("inserted object not top result: %v", results)
	}
	// And the inserted object retrieves its source.
	back := e.Search(inserted, 3, inserted.ID)
	if len(back) == 0 || back[0].ID != src.ID {
		t.Fatalf("reverse search failed: %v", back)
	}
}

func TestInsertInvalidatesStats(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})
	// Statistics after inserts must equal a from-scratch engine over the
	// same corpus.
	for i := 0; i < 3; i++ {
		src := d.Corpus.Object(media.ObjectID(i))
		feats := make([]media.Feature, len(src.Feats))
		counts := make([]int, len(src.Feats))
		for j, fid := range src.Feats {
			feats[j] = d.Corpus.Dict.Feature(fid)
			counts[j] = int(src.Counts[j])
		}
		if _, err := e.Insert(feats, counts, src.Month); err != nil {
			t.Fatal(err)
		}
	}
	fresh := corr.NewStats(d.Corpus)
	for fid := media.FID(0); int(fid) < d.Corpus.Dict.Len(); fid++ {
		if e.Model.Stats.Mean(fid) != fresh.Mean(fid) {
			t.Fatalf("mean differs for FID %d after inserts", fid)
		}
		if len(e.Model.Stats.Postings(fid)) != len(fresh.Postings(fid)) {
			t.Fatalf("postings differ for FID %d after inserts", fid)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})
	if _, err := e.Insert([]media.Feature{{Kind: media.Text, Name: "x"}}, []int{0}, 0); err == nil {
		t.Error("want error for invalid counts")
	}
}

func TestPrebuiltIndexRoundTrip(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})
	var buf bytes.Buffer
	if err := e.Index.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := index.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(d.Model(), Config{Index: loaded})
	if err != nil {
		t.Fatal(err)
	}
	q := d.Corpus.Object(4)
	a := e.Search(q, 5, q.ID)
	b := e2.Search(q, 5, q.ID)
	if len(a) != len(b) {
		t.Fatalf("result lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Errorf("rank %d: %v vs %v", i, a[i], b[i])
		}
	}
}
