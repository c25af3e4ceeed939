package index

import (
	"bytes"
	"testing"
	"unsafe"

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
		if len(blocks) != want {
			t.Fatalf("entry %v: %d blocks over %d postings, want %d", e.Feats, len(blocks), len(e.Objects), want)
		}
		if want > 1 {
			multi++
		}
		for bi := 0; bi < len(blocks); bi++ {
			b := blocks[bi]
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
			b := blocks[j/BlockLen]
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
		if len(lb) != len(eb) {
			t.Fatalf("entry %v: %d blocks after load, want %d", e.Feats, len(lb), len(eb))
		}
		for i := 0; i < len(lb); i++ {
			if lb[i] != eb[i] {
				t.Fatalf("entry %v block %d differs after load: %+v vs %+v", e.Feats, i, lb[i], eb[i])
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
		if want := (len(e.Objects) + BlockLen - 1) / BlockLen; len(blocks) != want {
			t.Fatalf("touched entry %v: %d blocks over %d postings, want %d", q.Feats, len(blocks), len(e.Objects), want)
		}
		if last := blocks[len(blocks)-1]; last.MaxID != o.ID {
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

// TestMemoryBytesDerivation pins the index.resident.bytes estimate to the
// in-memory layout: 4 B per posting and per feature slot, one Block per
// block-summary slot (a sealed entry's views are capacity-capped, so its
// slots are its elements), the key bytes, and per entry its header plus the lookup map's
// share — with the header taken from the Entry type itself, so the gauge
// follows any change to it. A clique added by Insert after sealing is
// counted through the same terms.
func TestMemoryBytesDerivation(t *testing.T) {
	c, m := blockWorld(t)
	inv := Build(m, fig.Options{}, fig.EnumerateOptions{MaxFeatures: 3})
	want := func() int64 {
		var posts, feats, blocks, keys int64
		for k, e := range inv.entries {
			posts += int64(cap(e.Objects))
			feats += int64(cap(e.Feats))
			blocks += int64(cap(e.blocks))
			keys += int64(len(k))
		}
		perEntry := int64(unsafe.Sizeof(Entry{})) + mapBytesPerKey
		return 4*posts + 4*feats + int64(unsafe.Sizeof(Block{}))*blocks + keys + int64(len(inv.entries))*perEntry
	}
	if got, w := inv.MemoryBytes(), want(); got != w {
		t.Fatalf("sealed index: MemoryBytes = %d, derivation gives %d", got, w)
	}

	tf := func(n string) media.Feature { return media.Feature{Kind: media.Text, Name: n} }
	o, err := c.Add([]media.Feature{tf("brandnew")}, []int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Stats.Append(o); err != nil {
		t.Fatal(err)
	}
	m.InvalidateCache()
	id, _ := c.Dict.Lookup(tf("brandnew"))
	if err := inv.Insert(o.ID, []fig.Clique{{Feats: []media.FID{id}}}, m); err != nil {
		t.Fatal(err)
	}
	if got, w := inv.MemoryBytes(), want(); got != w {
		t.Fatalf("after inserting a new clique: MemoryBytes = %d, derivation gives %d", got, w)
	}
}
