package retrieval

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"figfusion/internal/dataset"
	"figfusion/internal/fig"
	"figfusion/internal/media"
	"figfusion/internal/mrf"
	"figfusion/internal/topk"
)

func cloneFeatures(d *dataset.Dataset, src *media.Object) ([]media.Feature, []int) {
	feats := make([]media.Feature, len(src.Feats))
	counts := make([]int, len(src.Feats))
	for i, fid := range src.Feats {
		feats[i] = d.Corpus.Dict.Feature(fid)
		counts[i] = int(src.Counts[i])
	}
	return feats, counts
}

// TestWithParamsCloneSeesInserts is the stale-cache regression test for
// engines cloned with WithParams: a clone shares the correlation model and
// with it every memo, so an Insert through the original — one
// corr.Model.Append, one generation step — must leave the warm clone
// serving nothing of the pre-insert corpus. Before the generation stamp,
// the clone kept serving pre-insert cosines, CorS weights and smoothing
// sums.
func TestWithParamsCloneSeesInserts(t *testing.T) {
	d := testData(t)
	a := newEngine(t, d, Config{})
	params := a.Scorer.Params
	params.Alpha = 0.25 // the kind of variant a training sweep runs
	clone, err := a.WithParams(params)
	if err != nil {
		t.Fatal(err)
	}
	// Warm every cache in the clone's scorer (and the shared model).
	for i := 0; i < 5; i++ {
		q := d.Corpus.Object(media.ObjectID(i))
		clone.Search(q, 10, q.ID)
		clone.SearchScan(q, 10, q.ID)
	}
	src := d.Corpus.Object(7)
	feats, counts := cloneFeatures(d, src)
	gen := a.Model.Generation()
	if _, err := a.Insert(feats, counts, src.Month); err != nil {
		t.Fatal(err)
	}
	if got := a.Model.Generation(); got != gen+1 {
		t.Errorf("generation after one Insert = %d, want %d", got, gen+1)
	}
	// Ground truth: an engine built cold over the grown corpus with the
	// clone's parameters. The warm clone must match it exactly.
	fresh := newEngine(t, d, Config{Params: params})
	for i := 0; i < 10; i++ {
		q := d.Corpus.Object(media.ObjectID(i))
		want := fresh.Search(q, 10, q.ID)
		got := clone.Search(q, 10, q.ID)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results from warm clone, %d from fresh scorer", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d rank %d: warm clone served stale cache: got %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestEntryCorSMatchesScorer pins the satellite contract of the indexed
// search paths: the Eq. 9 weight they serve for every query clique equals
// — exactly, not approximately — the weight the scorer would compute at
// query time, so serving it from the index cannot change a single score
// bit. The contract must survive Engine.Insert: CliqueWeight is
// corpus-global, so after an insert every stored CorS the insert did not
// refresh is stale, and the weight resolution must detect that and fall
// back to the scorer instead of serving the pre-insert value (the
// regression this half of the test guards).
func TestEntryCorSMatchesScorer(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})

	// checkServedWeights compares the weight the indexed paths would
	// serve (Prepare's resolution) against a brand-new scorer over the
	// corpus as it currently stands, and reports how many of the checked
	// entries were served from the index versus the stale-entry fallback.
	checkServedWeights := func(label string) (checked, stale int) {
		t.Helper()
		fresh, err := mrf.NewScorer(e.Model, e.Scorer.Params)
		if err != nil {
			t.Fatal(err)
		}
		gen := e.Model.Generation()
		for i := 0; i < 20; i++ {
			q := d.Corpus.Object(media.ObjectID(i))
			for _, c := range e.QueryCliques(q) {
				entry, ok := e.Index.Lookup(c)
				if !ok {
					continue
				}
				if got, want := e.cliqueWeight(c, c.Key(), gen), fresh.CorS(c); got != want {
					t.Fatalf("%s: clique %v: served weight %v != scorer CorS %v", label, c.Feats, got, want)
				}
				if _, ok := entry.CorSAt(gen); !ok {
					stale++
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no indexed query cliques checked", label)
		}
		return checked, stale
	}

	if _, stale := checkServedWeights("fresh index"); stale != 0 {
		t.Fatalf("fresh index: %d entries unexpectedly stale", stale)
	}

	// Grow the corpus through the engine. Insert refreshes only the
	// inserted object's cliques, so the second pass must exercise the
	// stale-entry fallback on at least some entries to mean anything.
	src := d.Corpus.Object(3)
	feats, counts := cloneFeatures(d, src)
	if _, err := e.Insert(feats, counts, src.Month); err != nil {
		t.Fatal(err)
	}
	checked, stale := checkServedWeights("after insert")
	if stale == 0 || stale == checked {
		t.Fatalf("after insert: %d of %d entries stale; want a mix of refreshed and fallback entries", stale, checked)
	}

	// End to end: indexed Search through the live (partially stale) index
	// must match an engine rebuilt from scratch over the grown corpus.
	rebuilt := newEngine(t, d, Config{})
	for i := 0; i < 10; i++ {
		q := d.Corpus.Object(media.ObjectID(i))
		want := rebuilt.Search(q, 10, q.ID)
		got := e.Search(q, 10, q.ID)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results from live engine, %d from rebuilt engine", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d rank %d: live engine served stale index weight: got %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestSearchIsPrepareThenPreparedSearch pins the one search path: Search
// and SearchTA answer exactly what Prepare followed by the prepared search
// answers, and the weights Prepare compiles — index-stored where current —
// are the ones SearchScan compiles from the scorer alone. Both must hold
// across an insert, when most index-stored weights are stale and Prepare
// has to fall back to the scorer for them.
func TestSearchIsPrepareThenPreparedSearch(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{Pruning: PruneBlockMax})
	ctx := context.Background()
	paths := []struct {
		name     string
		direct   func(context.Context, *media.Object, int, media.ObjectID) ([]topk.Item, error)
		prepared func(context.Context, *PreparedQuery, int, media.ObjectID) ([]topk.Item, error)
	}{
		{"Search", e.SearchContext, e.SearchPreparedContext},
		{"SearchTA", e.SearchTAContext, e.SearchTAPreparedContext},
	}
	check := func(phase string) {
		t.Helper()
		for i := 0; i < 20; i++ {
			q := d.Corpus.Object(media.ObjectID(i))
			p := e.Prepare(q)
			scan := e.Scorer.Compile(e.QueryCliques(q), nil)
			if p.cs.Len() != scan.Len() {
				t.Fatalf("%s: query %d: Prepare compiled %d cliques, the scan path %d", phase, i, p.cs.Len(), scan.Len())
			}
			for ci := 0; ci < scan.Len(); ci++ {
				if got, want := p.cs.WeightedLambda(ci), scan.WeightedLambda(ci); got != want {
					t.Fatalf("%s: query %d clique %d: Prepare weight %v != scan-compiled weight %v", phase, i, ci, got, want)
				}
			}
			for _, path := range paths {
				want, _ := path.direct(ctx, q, 10, q.ID)
				got, _ := path.prepared(ctx, p, 10, q.ID)
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: query %d: %s = %v, Prepare + prepared = %v", phase, i, path.name, want, got)
				}
			}
		}
	}
	check("fresh index")
	src := d.Corpus.Object(3)
	feats, counts := cloneFeatures(d, src)
	if _, err := e.Insert(feats, counts, src.Month); err != nil {
		t.Fatal(err)
	}
	check("after insert")
}

// workerRunBytes serializes every search path's ranked IDs and scores for
// one engine configuration.
func workerRunBytes(t *testing.T, d *dataset.Dataset, workers int, pruning PruningMode) []byte {
	t.Helper()
	e := newEngine(t, d, Config{Workers: workers, Pruning: pruning})
	var buf bytes.Buffer
	for i := 0; i < 20; i++ {
		q := d.Corpus.Object(media.ObjectID(i))
		for _, it := range e.Search(q, 10, q.ID) {
			fmt.Fprintf(&buf, "%d>%d@%.17g ", q.ID, it.ID, it.Score)
		}
		for _, it := range e.SearchTA(q, 10, q.ID) {
			fmt.Fprintf(&buf, "%d#%d@%.17g ", q.ID, it.ID, it.Score)
		}
		for _, it := range e.SearchScan(q, 10, q.ID) {
			fmt.Fprintf(&buf, "%d|%d@%.17g ", q.ID, it.ID, it.Score)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestSearchDeterministicAcrossWorkers: every search path must return
// byte-identical rankings and scores at any scoring fan-out, in both
// pruning modes — the partial top-k merge under topk.Less's total order
// makes worker partitioning unobservable, and the pruning layer's bounds
// are striping-independent. The pruned mode must additionally match the
// unpruned bytes.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	d := testData(t)
	exact := workerRunBytes(t, d, 1, PruneOff)
	for _, pruning := range []PruningMode{PruneOff, PruneBlockMax} {
		for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
			if got := workerRunBytes(t, d, w, pruning); !bytes.Equal(exact, got) {
				t.Fatalf("pruning=%v workers=%d diverges from unpruned workers=1", pruning, w)
			}
		}
	}
}

// TestCandidateMergeMatchesMap cross-checks the multi-way merge against a
// straightforward map-based union over the same posting lists.
func TestCandidateMergeMatchesMap(t *testing.T) {
	d := testData(t)
	e := newEngine(t, d, Config{})
	for i := 0; i < 10; i++ {
		q := d.Corpus.Object(media.ObjectID(i))
		cliques := e.QueryCliques(q)
		acc := getAccum()
		acc.lookupKeys(e.Index, cliqueKeys(cliques))
		got := acc.merge(q.ID)

		union := make(map[media.ObjectID]bool)
		for _, c := range cliques {
			entry, ok := e.Index.Lookup(c)
			if !ok {
				continue
			}
			for _, oid := range entry.Objects {
				if oid != q.ID {
					union[oid] = true
				}
			}
		}
		if len(got) != len(union) {
			t.Fatalf("query %d: merge found %d candidates, map %d", i, len(got), len(union))
		}
		for j, oid := range got {
			if j > 0 && got[j-1] >= oid {
				t.Fatalf("query %d: candidates not strictly ascending at %d", i, j)
			}
			if !union[oid] {
				t.Fatalf("query %d: spurious candidate %d", i, oid)
			}
		}
		putAccum(acc)
	}
}

// cliqueKeys encodes the index keys Prepare would precompute.
func cliqueKeys(cliques []fig.Clique) []string {
	keys := make([]string, len(cliques))
	for i, c := range cliques {
		keys[i] = c.Key()
	}
	return keys
}

var benchSink int

func BenchmarkCandidateSet(b *testing.B) {
	d := testData(b)
	e := newEngine(b, d, Config{})
	keys := cliqueKeys(e.QueryCliques(d.Corpus.Object(0)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := getAccum()
		acc.lookupKeys(e.Index, keys)
		benchSink = len(acc.merge(NoExclude))
		putAccum(acc)
	}
}

func BenchmarkConcurrentSearch(b *testing.B) {
	d := testData(b)
	e := newEngine(b, d, Config{})
	queries := make([]*media.Object, 8)
	for i := range queries {
		queries[i] = d.Corpus.Object(media.ObjectID(i))
	}
	gs := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		gs = append(gs, n)
	}
	for _, g := range gs {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < b.N; i += g {
						q := queries[i%len(queries)]
						benchSink = len(e.Search(q, 10, q.ID))
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
