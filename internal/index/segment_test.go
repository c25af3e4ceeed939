package index

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"strings"
	"testing"

	"figfusion/internal/fig"
	"figfusion/internal/media"
)

// buildWithStale builds the blockWorld index and then inserts one object
// touching two cliques (one existing, one new), so the result exercises
// every persistence case at once: fresh entries, stale entries, a sealed
// arena, and a post-seal extraKeys entry.
func buildWithStale(t testing.TB) (*Inverted, uint64) {
	t.Helper()
	c, m := blockWorld(t)
	inv := Build(m, fig.Options{}, fig.EnumerateOptions{MaxFeatures: 3})
	tf := func(n string) media.Feature { return media.Feature{Kind: media.Text, Name: n} }
	o, err := c.Add([]media.Feature{tf("common"), tf("fresh-tag")}, []int{1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Stats.Append(o); err != nil {
		t.Fatal(err)
	}
	m.InvalidateCache()
	commonID, _ := c.Dict.Lookup(tf("common"))
	newID, _ := c.Dict.Lookup(tf("fresh-tag"))
	cliques := []fig.Clique{
		{Feats: []media.FID{commonID}},
		{Feats: []media.FID{newID}}, // not indexed before: exercises extraKeys
	}
	if err := inv.Insert(o.ID, cliques, m); err != nil {
		t.Fatal(err)
	}
	return inv, m.Generation()
}

// entriesEqual compares two indexes entry by entry, including freshness at
// wantGen and the block summaries.
func entriesEqual(t *testing.T, want, got *Inverted, wantGen, gotGen uint64) {
	t.Helper()
	if got.NumCliques() != want.NumCliques() || got.Postings() != want.Postings() {
		t.Fatalf("shape differs: %d cliques/%d postings vs %d/%d",
			got.NumCliques(), got.Postings(), want.NumCliques(), want.Postings())
	}
	for _, e := range want.Entries() {
		le, ok := got.LookupKey(fig.KeyOf(e.Feats))
		if !ok {
			t.Fatalf("clique %v missing", e.Feats)
		}
		if le.CorS != e.CorS {
			t.Fatalf("entry %v: CorS %v vs %v", e.Feats, le.CorS, e.CorS)
		}
		if len(le.Objects) != len(e.Objects) {
			t.Fatalf("entry %v: %d postings vs %d", e.Feats, len(le.Objects), len(e.Objects))
		}
		for i := range e.Objects {
			if le.Objects[i] != e.Objects[i] {
				t.Fatalf("entry %v: posting %d is %d, want %d", e.Feats, i, le.Objects[i], e.Objects[i])
			}
		}
		_, wantFresh := e.CorSAt(wantGen)
		_, gotFresh := le.CorSAt(gotGen)
		if wantFresh != gotFresh {
			t.Fatalf("entry %v: fresh=%v, want %v", e.Feats, gotFresh, wantFresh)
		}
		wb, wok := e.BlocksAt(wantGen)
		gb, gok := le.BlocksAt(gotGen)
		if wok != gok || len(wb) != len(gb) {
			t.Fatalf("entry %v: blocks (%v,%d) vs (%v,%d)", e.Feats, gok, len(gb), wok, len(wb))
		}
		for i := 0; i < len(wb); i++ {
			if wb[i] != gb[i] {
				t.Fatalf("entry %v block %d: %+v vs %+v", e.Feats, i, gb[i], wb[i])
			}
		}
	}
}

// TestSegmentRoundTrip: a save at the current generation round-trips
// entries, postings, block summaries and per-entry staleness exactly, at
// any loader fan-out, through the sealed-arena and extraKeys paths alike.
func TestSegmentRoundTrip(t *testing.T) {
	inv, gen := buildWithStale(t)
	var buf bytes.Buffer
	if err := inv.SaveAt(&buf, gen); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(segMagic)) {
		t.Fatal("Save did not write segment magic")
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := LoadWorkers(bytes.NewReader(buf.Bytes()), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		entriesEqual(t, inv, got, gen, 0)
	}
}

// TestSegmentSaveDeterministic: the same index serializes to the same
// bytes, save after save.
func TestSegmentSaveDeterministic(t *testing.T) {
	inv, gen := buildWithStale(t)
	var a, b bytes.Buffer
	if err := inv.SaveAt(&a, gen); err != nil {
		t.Fatal(err)
	}
	if err := inv.SaveAt(&b, gen); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same index differ")
	}
}

// TestSegmentEmptyRoundTrip: a zero-entry index survives the format.
func TestSegmentEmptyRoundTrip(t *testing.T) {
	inv := &Inverted{entries: make(map[string]*Entry)}
	inv.seal(nil)
	var buf bytes.Buffer
	if err := inv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCliques() != 0 {
		t.Fatalf("NumCliques = %d, want 0", got.NumCliques())
	}
}

func segmentBytes(t testing.TB) []byte {
	t.Helper()
	inv, gen := buildWithStale(t)
	var buf bytes.Buffer
	if err := inv.SaveAt(&buf, gen); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func wantSegmentError(t *testing.T, data []byte, what string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: reader panicked: %v", what, r)
		}
	}()
	inv, err := readSegment(data, 4)
	if err == nil {
		t.Fatalf("%s: corrupt segment loaded without error", what)
	}
	if inv != nil {
		t.Fatalf("%s: error return carried a partial index", what)
	}
	if !strings.HasPrefix(err.Error(), "index: segment: ") {
		t.Fatalf("%s: error %q lacks the index: segment: prefix", what, err)
	}
}

// TestSegmentTruncation: every proper prefix of a valid segment file is
// rejected with a descriptive error — no panic, no partial index.
func TestSegmentTruncation(t *testing.T) {
	data := segmentBytes(t)
	for n := 0; n < len(data); n++ {
		wantSegmentError(t, data[:n], "truncated")
	}
}

// TestSegmentBitFlips: flipping any single bit of a valid segment file is
// detected. Every byte is covered by the header checksum, a section
// checksum, or is itself part of the checksum trailer.
func TestSegmentBitFlips(t *testing.T) {
	data := segmentBytes(t)
	mut := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit += 3 {
			copy(mut, data)
			mut[i] ^= 1 << bit
			wantSegmentError(t, mut, "bit-flipped")
		}
	}
}

// FuzzLoadSegment: whatever bytes arrive as a snapshot segment, the loader
// either returns an index or a descriptive error with no partial index —
// never a panic. The seeds are a valid segment and every truncation and
// bit flip of it that the two tests above check.
func FuzzLoadSegment(f *testing.F) {
	data := segmentBytes(f)
	for n := 0; n <= len(data); n++ {
		f.Add(data[:n])
	}
	for i := range data {
		for bit := 0; bit < 8; bit += 3 {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		inv, err := readSegment(b, 2)
		if err != nil && (inv != nil || !strings.HasPrefix(err.Error(), "index: segment: ")) {
			t.Fatalf("error %q (partial index: %v); want an index: segment: error and no index", err, inv != nil)
		}
	})
}

// TestSegmentGarbage: structurally invalid inputs, with a valid magic or
// without, fail descriptively rather than panicking or over-allocating.
func TestSegmentGarbage(t *testing.T) {
	cases := map[string][]byte{
		"magic only":   []byte(segMagic),
		"short header": append([]byte(segMagic), make([]byte, 10)...),
		"zeroed frame": append([]byte(segMagic), make([]byte, 400)...),
		"huge entrycount": func() []byte {
			b := make([]byte, 4096)
			copy(b, segMagic)
			b[4] = segVersion
			b[12] = segNumSections
			for i := 24; i < 32; i++ {
				b[i] = 0xff // entryCount = 2^64-1
			}
			return b
		}(),
	}
	for name, data := range cases {
		wantSegmentError(t, data, name)
	}

	// Bytes the loader does not own — a well-formed snapshot in the retired
	// gob format, and a segment magic with its last byte wrong — are refused
	// by name at both public entry points before anything of theirs is
	// decoded: the rejection allocates the error (plus, under -race, the
	// detector's fixed overhead), never a buffer sized by the input.
	type gobRow struct {
		Feats   []media.FID
		CorS    float64
		Objects []media.ObjectID
		Fresh   bool
	}
	rows := make([]gobRow, 500)
	for i := range rows {
		rows[i] = gobRow{Feats: []media.FID{media.FID(i)}, CorS: 0.5, Objects: make([]media.ObjectID, 64), Fresh: true}
	}
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(rows); err != nil {
		t.Fatal(err)
	}
	foreign := map[string][]byte{
		"gob snapshot":     legacy.Bytes(),
		"FSG + wrong byte": append([]byte("FSG2"), make([]byte, 1<<16)...),
	}
	for name, data := range foreign {
		wantSegmentError(t, data, name)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readSegment(data, 1)
		runtime.ReadMemStats(&after)
		if !strings.Contains(err.Error(), segMagic) {
			t.Errorf("%s: error %q does not name the expected magic %s", name, err, segMagic)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(data))/2 {
			t.Errorf("%s: rejection allocated %d bytes for a %d-byte input", name, got, len(data))
		}
		if _, err := Load(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), segMagic) {
			t.Errorf("%s: Load = %v, want an error naming %s", name, err, segMagic)
		}
		if _, err := InspectSnapshot(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), segMagic) {
			t.Errorf("%s: InspectSnapshot = %v, want an error naming %s", name, err, segMagic)
		}
	}
}

// TestSegmentVersionGate: a bumped format version is refused up front.
func TestSegmentVersionGate(t *testing.T) {
	data := append([]byte(nil), segmentBytes(t)...)
	data[4] = segVersion + 1
	wantSegmentError(t, data, "future version")
}

// TestLoadStatsRecorded: loads report size and fan-out.
func TestLoadStatsRecorded(t *testing.T) {
	inv, gen := buildWithStale(t)
	var seg bytes.Buffer
	if err := inv.SaveAt(&seg, gen); err != nil {
		t.Fatal(err)
	}
	got, err := LoadWorkers(bytes.NewReader(seg.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	st := got.LoadStats()
	if st == nil || st.Bytes != int64(seg.Len()) || st.Workers != 2 {
		t.Fatalf("segment load stats = %+v", st)
	}
	if inv.LoadStats() != nil {
		t.Fatal("built index reports load stats")
	}
}

// TestInspectSnapshot: the inspector agrees with the index it summarizes.
func TestInspectSnapshot(t *testing.T) {
	inv, gen := buildWithStale(t)
	var seg bytes.Buffer
	if err := inv.SaveAt(&seg, gen); err != nil {
		t.Fatal(err)
	}
	fresh := 0
	for _, e := range inv.Entries() {
		if _, ok := e.CorSAt(gen); ok {
			fresh++
		}
	}
	si, err := InspectSnapshot(bytes.NewReader(seg.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if si.Version != segVersion || si.Generation != gen {
		t.Fatalf("segment header = %+v", si)
	}
	if si.Entries != inv.NumCliques() || si.Postings != int64(inv.Postings()) || si.Fresh != fresh {
		t.Fatalf("segment totals = %+v, want %d entries / %d postings / %d fresh",
			si, inv.NumCliques(), inv.Postings(), fresh)
	}
	if len(si.Sections) != segNumSections {
		t.Fatalf("%d sections, want %d", len(si.Sections), segNumSections)
	}
	var sum int64 = segPayloadOff + segTrailerLen
	for _, s := range si.Sections {
		if !s.OK {
			t.Fatalf("section %s reports checksum mismatch on a clean file", s.Name)
		}
		sum += s.Bytes
	}
	if sum != si.Bytes {
		t.Fatalf("sections+frame = %d bytes, file is %d", sum, si.Bytes)
	}
	// The corrupted-section case still inspects, flagging the section.
	data := append([]byte(nil), seg.Bytes()...)
	data[len(data)-segTrailerLen-1] ^= 0x40 // last payload byte (blocks section)
	ci, err := InspectSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if ci.Sections[3].OK {
		t.Fatal("inspect did not flag the corrupted blocks section")
	}
}

// TestKeyEncoderParity: the index's persisted/interned keys and
// fig.Clique.Key are the same encoder — a clique addressed either way hits
// the same entry, including after a snapshot round trip.
func TestKeyEncoderParity(t *testing.T) {
	_, m := blockWorld(t)
	inv := Build(m, fig.Options{}, fig.EnumerateOptions{MaxFeatures: 3})
	var buf bytes.Buffer
	if err := inv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range inv.Entries() {
		key := fig.Clique{Feats: e.Feats}.Key()
		if key != fig.KeyOf(e.Feats) {
			t.Fatalf("Clique.Key and KeyOf disagree for %v", e.Feats)
		}
		if le, ok := got.LookupKey(key); !ok || len(le.Objects) != len(e.Objects) {
			t.Fatalf("clique %v not addressable by Clique.Key after round trip", e.Feats)
		}
		if feats := fig.KeyFeats(key); len(feats) != len(e.Feats) {
			t.Fatalf("KeyFeats inverse broken for %v", e.Feats)
		}
	}
}
