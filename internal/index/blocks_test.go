package index

import (
	"bytes"
	"testing"

	"figfusion/internal/corr"
	"figfusion/internal/fig"
	"figfusion/internal/lexicon"
	"figfusion/internal/media"
	"figfusion/internal/mrf"
)

// blockWorld is a corpus wide enough that common cliques span several
// posting blocks: every object carries "common" (200 postings, 4 blocks),
// halves and thirds carry "even"/"third".
func blockWorld(t testing.TB) (*media.Corpus, *corr.Model) {
	t.Helper()
	c := media.NewCorpus()
	tf := func(n string) media.Feature { return media.Feature{Kind: media.Text, Name: n} }
	for i := 0; i < 200; i++ {
		names := []string{"common"}
		if i%2 == 0 {
			names = append(names, "even")
		}
		if i%3 == 0 {
			names = append(names, "third")
		}
		feats := make([]media.Feature, len(names))
		counts := make([]int, len(names))
		for j, n := range names {
			feats[j] = tf(n)
			counts[j] = 1 + (i+j)%3
		}
		if _, err := c.Add(feats, counts, i%12); err != nil {
			t.Fatal(err)
		}
	}
	tax, err := lexicon.Generate([]lexicon.TopicGroup{
		{Name: "stuff", Domain: "things", Words: []string{"common", "even", "third"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, corr.NewModel(corr.NewStats(c), tax, nil, nil, nil, nil)
}

// TestBlocksCoverPostings: every entry's summaries partition its posting
// list into BlockLen runs whose ID ranges are exactly the runs' first and
// last postings, and they are served fresh at the build generation.
func TestBlocksCoverPostings(t *testing.T) {
	_, m := blockWorld(t)
	inv := Build(m, fig.Options{}, fig.EnumerateOptions{MaxFeatures: 3})
	gen := m.Generation()
	multi := 0
	for _, e := range inv.Entries() {
		blocks, ok := e.BlocksAt(gen)
		if !ok {
			t.Fatalf("entry %v: no fresh blocks at build generation", e.Feats)
		}
		want := (len(e.Objects) + BlockLen - 1) / BlockLen
		if blocks.Len() != want {
			t.Fatalf("entry %v: %d blocks over %d postings, want %d", e.Feats, blocks.Len(), len(e.Objects), want)
		}
		if want > 1 {
			multi++
		}
		for bi := 0; bi < blocks.Len(); bi++ {
			b := blocks.Block(bi)
			lo := bi * BlockLen
			hi := lo + BlockLen
			if hi > len(e.Objects) {
				hi = len(e.Objects)
			}
			if b.MinID != e.Objects[lo] || b.MaxID != e.Objects[hi-1] {
				t.Fatalf("entry %v block %d: range [%d,%d], postings run [%d,%d]",
					e.Feats, bi, b.MinID, b.MaxID, e.Objects[lo], e.Objects[hi-1])
			}
			for _, oid := range e.Objects[lo:hi] {
				if oid < b.MinID || oid > b.MaxID {
					t.Fatalf("entry %v block %d: posting %d outside [%d,%d]", e.Feats, bi, oid, b.MinID, b.MaxID)
				}
			}
		}
	}
	if multi == 0 {
		t.Fatal("no multi-block entry in fixture; coverage test is vacuous")
	}
}

// TestBlockBoundsSound: for every posting, the covering block's summary
// dominates the posting's actual conditional components — the property the
// query-time admission bound is assembled from.
func TestBlockBoundsSound(t *testing.T) {
	_, m := blockWorld(t)
	inv := Build(m, fig.Options{}, fig.EnumerateOptions{MaxFeatures: 3})
	corpus := m.Stats.Corpus()
	for _, e := range inv.Entries() {
		blocks, ok := e.BlocksAt(m.Generation())
		if !ok {
			t.Fatalf("entry %v: no fresh blocks", e.Feats)
		}
		for j, oid := range e.Objects {
			b := blocks.Block(j / BlockLen)
			sf, sm := mrf.PotentialParts(m, e.Feats, corpus.Object(oid))
			if sf > b.MaxSF {
				t.Fatalf("entry %v posting %d: sf %v exceeds block MaxSF %v", e.Feats, oid, sf, b.MaxSF)
			}
			if sm > b.MaxSM {
				t.Fatalf("entry %v posting %d: sm %v exceeds block MaxSM %v", e.Feats, oid, sm, b.MaxSM)
			}
			if sm < b.MinSM {
				t.Fatalf("entry %v posting %d: sm %v below block MinSM %v", e.Feats, oid, sm, b.MinSM)
			}
		}
	}
}

// TestBlocksSaveLoadRoundTrip: summaries persist bit-exactly and come back
// fresh (generation 0, matching a freshly constructed model).
func TestBlocksSaveLoadRoundTrip(t *testing.T) {
	_, m := blockWorld(t)
	inv := Build(m, fig.Options{}, fig.EnumerateOptions{MaxFeatures: 3})
	gen := m.Generation()
	var buf bytes.Buffer
	if err := inv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range inv.Entries() {
		eb, ok := e.BlocksAt(gen)
		if !ok {
			t.Fatalf("entry %v: no fresh blocks before save", e.Feats)
		}
		le, ok := got.Lookup(fig.Clique{Feats: e.Feats})
		if !ok {
			t.Fatalf("clique %v missing after load", e.Feats)
		}
		lb, ok := le.BlocksAt(0)
		if !ok {
			t.Fatalf("entry %v: blocks not fresh after load", e.Feats)
		}
		if lb.Len() != eb.Len() {
			t.Fatalf("entry %v: %d blocks after load, want %d", e.Feats, lb.Len(), eb.Len())
		}
		for i := 0; i < lb.Len(); i++ {
			if lb.Block(i) != eb.Block(i) {
				t.Fatalf("entry %v block %d differs after load: %+v vs %+v", e.Feats, i, lb.Block(i), eb.Block(i))
			}
		}
	}
}

// TestInsertRefreshesBlocks pins the freshness half of the block bound's
// correctness: every Insert recomputes the summaries of the entries it
// touches (stamping them at the new generation) and leaves untouched
// entries' summaries stale — BlocksAt must refuse those, since they
// describe pre-insert corpus statistics.
func TestInsertRefreshesBlocks(t *testing.T) {
	c, m := blockWorld(t)
	inv := Build(m, fig.Options{}, fig.EnumerateOptions{MaxFeatures: 3})
	tf := func(n string) media.Feature { return media.Feature{Kind: media.Text, Name: n} }
	o, err := c.Add([]media.Feature{tf("common"), tf("even")}, []int{2, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Stats.Append(o); err != nil {
		t.Fatal(err)
	}
	m.InvalidateCache()
	commonID, _ := c.Dict.Lookup(tf("common"))
	evenID, _ := c.Dict.Lookup(tf("even"))
	thirdID, _ := c.Dict.Lookup(tf("third"))
	touched := []fig.Clique{{Feats: []media.FID{commonID}}, {Feats: []media.FID{evenID}}}
	if err := inv.Insert(o.ID, touched, m); err != nil {
		t.Fatal(err)
	}
	gen := m.Generation()
	for _, q := range touched {
		e, ok := inv.Lookup(q)
		if !ok {
			t.Fatalf("touched clique %v missing", q.Feats)
		}
		blocks, ok := e.BlocksAt(gen)
		if !ok {
			t.Fatalf("touched entry %v: blocks not refreshed by Insert", q.Feats)
		}
		if want := (len(e.Objects) + BlockLen - 1) / BlockLen; blocks.Len() != want {
			t.Fatalf("touched entry %v: %d blocks over %d postings, want %d", q.Feats, blocks.Len(), len(e.Objects), want)
		}
		if last := blocks.Block(blocks.Len() - 1); last.MaxID != o.ID {
			t.Fatalf("touched entry %v: last block ends at %d, inserted object is %d", q.Feats, last.MaxID, o.ID)
		}
	}
	ue, ok := inv.Lookup(fig.Clique{Feats: []media.FID{thirdID}})
	if !ok {
		t.Fatal("untouched clique missing")
	}
	if _, ok := ue.BlocksAt(gen); ok {
		t.Fatal("untouched entry served stale blocks as fresh after Insert")
	}
	if _, ok := ue.BlocksAt(gen - 1); !ok {
		t.Fatal("untouched entry lost its build-generation blocks")
	}
}
