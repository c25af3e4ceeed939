package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"figfusion/internal/corr"
	"figfusion/internal/dataset"
	"figfusion/internal/media"
	"figfusion/internal/retrieval"
	"figfusion/internal/topk"
)

// searcher is the surface shared by a single engine and a shard router —
// what the parity contract quantifies over.
type searcher interface {
	Search(q *media.Object, k int, exclude media.ObjectID) []topk.Item
	SearchTA(q *media.Object, k int, exclude media.ObjectID) []topk.Item
}

// searchBytes serializes the full Search and SearchTA rankings (IDs and
// scores at full float precision) for a block of query objects.
func searchBytes(sys searcher, corpus *media.Corpus, queries []media.ObjectID) []byte {
	var buf bytes.Buffer
	for _, id := range queries {
		q := corpus.Object(id)
		for _, it := range sys.Search(q, 10, q.ID) {
			fmt.Fprintf(&buf, "%d>%d@%.17g ", q.ID, it.ID, it.Score)
		}
		buf.WriteByte('\n')
		for _, it := range sys.SearchTA(q, 10, q.ID) {
			fmt.Fprintf(&buf, "%d~%d@%.17g ", q.ID, it.ID, it.Score)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// testData mirrors the retrieval package's small deterministic corpus.
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

// testSystem builds one independent copy of the corpus and its trained
// model — each system under comparison gets its own, since inserts mutate
// the corpus in place.
func testSystem(t testing.TB) (*dataset.Dataset, *corr.Model) {
	t.Helper()
	d := testData(t)
	m := d.Model()
	m.TrainThresholds(100, 0.35, rand.New(rand.NewSource(13)))
	return d, m
}

// parityInserts is a fixed mixed batch of routed inserts: existing tags,
// brand-new tags (exercising feature interning), users, and varying months.
func parityInserts() [][]media.Feature {
	var batches [][]media.Feature
	for j := 0; j < 10; j++ {
		feats := []media.Feature{
			{Kind: media.Text, Name: fmt.Sprintf("topic%02dtag%02d", j%5, j%8)},
			{Kind: media.Text, Name: fmt.Sprintf("topic%02dtag%02d", (j+1)%5, (j+3)%8)},
			{Kind: media.Text, Name: fmt.Sprintf("freshtag%02d", j)},
		}
		if j%2 == 0 {
			feats = append(feats, media.Feature{Kind: media.User, Name: fmt.Sprintf("u_t%02d_%02d", j%5, j%8)})
		}
		batches = append(batches, feats)
	}
	return batches
}

func applyInserts(t *testing.T, ins func(feats []media.Feature, counts []int, month int) (*media.Object, error)) {
	t.Helper()
	for j, feats := range parityInserts() {
		counts := make([]int, len(feats))
		for i := range counts {
			counts[i] = 1 + i%2
		}
		if _, err := ins(feats, counts, j%6); err != nil {
			t.Fatal(err)
		}
	}
}

func shardCounts() []int {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	out := counts[:0]
	for _, n := range counts {
		if n >= 1 && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// TestScatterGatherParity is the subsystem's determinism contract: over
// identical corpora, Search and SearchTA results are byte-identical
// between a single engine and routers at 1/2/4/NumCPU shards — before a
// round of routed inserts, after it, and after a snapshot Save/Load round
// trip. Sharding partitions postings and candidate scoring, never scores.
func TestScatterGatherParity(t *testing.T) {
	refD, refM := testSystem(t)
	ref, err := retrieval.NewEngine(refM, retrieval.Config{})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]media.ObjectID, 20)
	for i := range queries {
		queries[i] = media.ObjectID(i)
	}
	refBefore := searchBytes(ref, refD.Corpus, queries)

	type sys struct {
		n       int
		pruning retrieval.PruningMode
		d       *dataset.Dataset
		router  *Router
	}
	var systems []sys
	// Routers run both without pruning and with block-max pruning: the
	// pruned scatter-gather must stay byte-identical to the unpruned
	// single engine at every shard count and lifecycle step.
	for _, n := range shardCounts() {
		for _, pruning := range []retrieval.PruningMode{retrieval.PruneOff, retrieval.PruneBlockMax} {
			d, m := testSystem(t)
			r, err := NewRouter(m, Config{Shards: n, Retrieval: retrieval.Config{Pruning: pruning}})
			if err != nil {
				t.Fatal(err)
			}
			if got := searchBytes(r, d.Corpus, queries); !bytes.Equal(got, refBefore) {
				t.Fatalf("shards=%d pruning=%v: pre-insert results diverge from single engine (%d vs %d bytes)", n, pruning, len(got), len(refBefore))
			}
			systems = append(systems, sys{n: n, pruning: pruning, d: d, router: r})
		}
	}

	// A round of routed inserts must preserve parity: the single engine
	// ingests through Engine.Insert, each router through its routed path.
	applyInserts(t, ref.Insert)
	for _, s := range systems {
		applyInserts(t, s.router.Insert)
	}
	// Query block now includes inserted objects (IDs past the original
	// corpus) so the freshly indexed postings are exercised too.
	grown := append(append([]media.ObjectID(nil), queries...),
		media.ObjectID(150), media.ObjectID(155), media.ObjectID(159))
	refAfter := searchBytes(ref, refD.Corpus, grown)
	if bytes.Equal(refAfter, refBefore) {
		t.Fatal("inserts did not change reference results; parity check is vacuous")
	}
	for _, s := range systems {
		if got := searchBytes(s.router, s.d.Corpus, grown); !bytes.Equal(got, refAfter) {
			t.Fatalf("shards=%d pruning=%v: post-insert results diverge from single engine", s.n, s.pruning)
		}
	}

	// Snapshot round trip: persist each router's shard set, reload it over
	// a freshly reconstructed model of the same corpus (thresholds carried
	// over, as a deployment's config would), and require the same bytes.
	for _, s := range systems {
		base := filepath.Join(t.TempDir(), "snap")
		man, err := s.router.Save(base)
		if err != nil {
			t.Fatal(err)
		}
		if man.Shards != s.n || man.Objects != s.d.Corpus.Len() {
			t.Fatalf("shards=%d pruning=%v: manifest %+v does not match router", s.n, s.pruning, man)
		}
		m2 := s.d.Model()
		m2.Thresholds = s.router.Model().Thresholds
		r2, man2, err := Load(m2, Config{Retrieval: retrieval.Config{Pruning: s.pruning}}, base)
		if err != nil {
			t.Fatal(err)
		}
		if man2.Shards != s.n {
			t.Fatalf("loaded manifest shards = %d, want %d", man2.Shards, s.n)
		}
		if got := searchBytes(r2, s.d.Corpus, grown); !bytes.Equal(got, refAfter) {
			t.Fatalf("shards=%d pruning=%v: post-roundtrip results diverge from single engine", s.n, s.pruning)
		}
	}
}
