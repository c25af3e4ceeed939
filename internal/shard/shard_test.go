package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"figfusion/internal/atomicfile"
	"figfusion/internal/corr"
	"figfusion/internal/index"
	"figfusion/internal/media"
	"figfusion/internal/retrieval"
)

// TestShardOfPinned pins the routing function's exact values: snapshots
// persist postings per shard, so ShardOf must never change for a given
// (id, shards) pair. If this test fails, the routing hash was altered and
// every existing snapshot set is silently mis-sharded.
func TestShardOfPinned(t *testing.T) {
	cases := []struct {
		id     media.ObjectID
		shards int
		want   int
	}{
		{0, 1, 0}, {12345, 1, 0},
		{0, 2, 0}, {1, 2, 1}, {2, 2, 0}, {3, 2, 0}, {4, 2, 0},
		{150, 2, 1}, {155, 2, 1}, {159, 2, 0},
		{0, 4, 0}, {1, 4, 1}, {2, 4, 2}, {3, 4, 0}, {4, 4, 0},
		{150, 4, 3}, {155, 4, 1}, {159, 4, 2},
	}
	for _, tc := range cases {
		if got := ShardOf(tc.id, tc.shards); got != tc.want {
			t.Errorf("ShardOf(%d, %d) = %d, want %d", tc.id, tc.shards, got, tc.want)
		}
	}
	// Every ID routes in range, and the mapping is total over shard counts.
	for id := media.ObjectID(0); id < 1000; id++ {
		for _, n := range []int{1, 2, 3, 4, 7, 16} {
			if s := ShardOf(id, n); s < 0 || s >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", id, n, s)
			}
		}
	}
}

func TestNewRouterValidation(t *testing.T) {
	d, m := testSystem(t)
	if _, err := NewRouter(m, Config{Shards: 2, Retrieval: retrieval.Config{SkipIndex: true}}); err == nil {
		t.Error("SkipIndex accepted")
	}
	eng, err := retrieval.NewEngine(m, retrieval.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter(m, Config{Shards: 2, Retrieval: retrieval.Config{Index: eng.Index}}); err == nil {
		t.Error("preset Index accepted")
	}
	r, err := NewRouter(m, Config{Shards: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumShards() != 1 {
		t.Errorf("Shards=0 built %d shards, want 1", r.NumShards())
	}
	_ = d
}

// TestShardsServeFromOneMemo: each shard engine carries its own scorer over
// the one shared model, so what any shard memoised serves all of them — a
// repeated search adds no smoothing miss on any shard — and a routed insert
// invalidates through the model alone: warmed through every shard, then
// grown, the router answers byte for byte like a single shard that never
// served before its inserts.
func TestShardsServeFromOneMemo(t *testing.T) {
	d, m := testSystem(t)
	r, err := NewRouter(m, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := []media.ObjectID{0, 1, 2, 3, 4, 5, 6, 7}
	searchBytes(r, d.Corpus, queries)
	warm := m.CacheStats().SmoothMisses
	searchBytes(r, d.Corpus, queries)
	if again := m.CacheStats().SmoothMisses; again != warm {
		t.Errorf("repeating the searches added %d smoothing misses, want 0", again-warm)
	}
	gen := r.Generation()
	applyInserts(t, r.Insert)
	if got, want := r.Generation(), gen+uint64(len(parityInserts())); got != want {
		t.Errorf("generation after the inserts = %d, want %d (one step per insert)", got, want)
	}

	coldD, coldM := testSystem(t)
	cold, err := NewRouter(coldM, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	applyInserts(t, cold.Insert)
	queries = append(queries, 150, 159)
	if got, want := searchBytes(r, d.Corpus, queries), searchBytes(cold, coldD.Corpus, queries); !bytes.Equal(got, want) {
		t.Error("3 warm shards and 1 cold shard disagree after the same inserts")
	}
}

// TestShardInfos checks the health snapshot: per-shard object counts
// partition the corpus, postings are non-empty, and a routed insert grows
// exactly the owning shard.
func TestShardInfos(t *testing.T) {
	d, m := testSystem(t)
	r, err := NewRouter(m, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum := func() int {
		total := 0
		for _, si := range r.ShardInfos() {
			total += si.Objects
		}
		return total
	}
	if got := sum(); got != d.Corpus.Len() {
		t.Fatalf("shard object counts sum to %d, want %d", got, d.Corpus.Len())
	}
	for _, si := range r.ShardInfos() {
		if si.Objects > 0 && si.Cliques == 0 {
			t.Errorf("shard %d holds %d objects but indexes no cliques", si.Shard, si.Objects)
		}
	}
	before := r.ShardInfos()
	o, err := r.Insert([]media.Feature{{Kind: media.Text, Name: "topic00tag00"}}, []int{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	owner := ShardOf(o.ID, r.NumShards())
	after := r.ShardInfos()
	for i := range after {
		want := before[i].Objects
		if i == owner {
			want++
		}
		if after[i].Objects != want {
			t.Errorf("shard %d objects = %d, want %d (owner %d)", i, after[i].Objects, want, owner)
		}
	}
	if r.Inserts() != 1 {
		t.Errorf("Inserts() = %d, want 1", r.Inserts())
	}
	if r.Generation() == 0 {
		t.Error("generation did not advance on insert")
	}
	// The routed object is immediately retrievable through scatter-gather.
	found := false
	for _, it := range r.Search(o, d.Corpus.Len(), retrieval.NoExclude) {
		if it.ID == o.ID {
			found = true
		}
	}
	if !found {
		t.Error("inserted object not retrievable")
	}
}

// snapshotFrames splits snapshot bytes into the manifest line and each
// shard's segment, through the one reader of the framing.
func snapshotFrames(t testing.TB, raw []byte) (line []byte, segs [][]byte) {
	t.Helper()
	err := ReadSnapshot(bytes.NewReader(raw), func(*Manifest) error { return nil }, func(_ int, seg io.Reader) error {
		b, err := io.ReadAll(seg)
		segs = append(segs, b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw[:bytes.IndexByte(raw, '\n')+1], segs
}

// frameSnapshot is the inverse: a manifest line and segments, length-prefixed.
func frameSnapshot(line []byte, segs ...[]byte) []byte {
	out := append([]byte(nil), line...)
	for _, seg := range segs {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(seg)))
		out = append(out, seg...)
	}
	return out
}

func TestLoadValidation(t *testing.T) {
	d, m := testSystem(t)
	r, err := NewRouter(m, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "snap")
	if _, err := r.Save(base); err != nil {
		t.Fatal(err)
	}

	freshModel := func() *corr.Model {
		m2 := d.Model()
		m2.Thresholds = m.Thresholds
		return m2
	}

	// Missing file.
	if _, _, err := Load(freshModel(), Config{}, filepath.Join(dir, "nope")); err == nil {
		t.Error("missing snapshot accepted")
	}
	// Shard-count mismatch.
	if _, _, err := Load(freshModel(), Config{Shards: 4}, base); err == nil || !strings.Contains(err.Error(), "configured 4 shards") {
		t.Errorf("shard-count mismatch err = %v", err)
	}
	// Corpus-size mismatch.
	sub, err := d.Subset(50)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(sub.Model(), Config{}, base); err == nil || !strings.Contains(err.Error(), "objects") {
		t.Errorf("corpus mismatch err = %v", err)
	}
	// Swapped segments must fail the routing integrity check.
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	line, segs := snapshotFrames(t, raw)
	load := func(content []byte) error {
		t.Helper()
		if err := os.WriteFile(base, content, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Load(freshModel(), Config{}, base)
		return err
	}
	if err := load(frameSnapshot(line, segs[1], segs[0])); err == nil || !strings.Contains(err.Error(), "routes to shard") {
		t.Errorf("swapped segments err = %v", err)
	}
	// The two retired formats say what they are and how to replace them.
	if err := load(segs[0]); err == nil || !strings.Contains(err.Error(), "bare FSG1") || !strings.Contains(err.Error(), "figdata -index") {
		t.Errorf("bare FSG1 file err = %v", err)
	}
	if err := load([]byte(v1Manifest)); err == nil || !strings.Contains(err.Error(), "v1 snapshot-set manifest") || !strings.Contains(err.Error(), "figdata -index") {
		t.Errorf("v1 manifest err = %v", err)
	}
	if err := load(raw); err != nil {
		t.Errorf("restored snapshot err = %v", err)
	}
}

// v1Manifest is what Save wrote to <base>.manifest.json before version 2.
const v1Manifest = `{
  "version": 1,
  "shards": 2,
  "objects": 150,
  "generation": 0,
  "inserts": 0,
  "files": [
    "snap.shard000.idx",
    "snap.shard001.idx"
  ]
}
`

// TestLoadRefusesMispairedModel: the index depends on the trained
// thresholds (FIG edges → cliques) and the dictionary (FID space), not only
// on the object count, so a snapshot is stamped with both and a model that
// differs in either is refused with an error naming the field; the model it
// was cut under loads.
func TestLoadRefusesMispairedModel(t *testing.T) {
	d, m := testSystem(t)
	r, err := NewRouter(m, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap")
	if _, err := r.Save(path); err != nil {
		t.Fatal(err)
	}

	other := d.Model()
	other.Thresholds = m.Thresholds
	other.Thresholds[media.Text][media.User] += 0.125
	if _, _, err := Load(other, Config{}, path); err == nil || !strings.Contains(err.Error(), "thresholds[text][user]") || !strings.Contains(err.Error(), "-seed") {
		t.Errorf("other thresholds err = %v, want a refusal naming thresholds[text][user] and -seed", err)
	}

	same := d.Model()
	same.Thresholds = m.Thresholds
	loaded, man, err := Load(same, Config{}, path)
	if err != nil {
		t.Fatalf("same thresholds: %v", err)
	}
	if man.Thresholds != m.Thresholds || man.Features != d.Corpus.Dict.Len() {
		t.Errorf("manifest stamps %v / %d features, want the model's %v / %d", man.Thresholds, man.Features, m.Thresholds, d.Corpus.Dict.Len())
	}
	queries := []media.ObjectID{0, 1, 2, 3}
	if !bytes.Equal(searchBytes(loaded, d.Corpus, queries), searchBytes(r, d.Corpus, queries)) {
		t.Error("snapshot loaded under its own thresholds answers differently")
	}

	// Same object count and thresholds, one more dictionary entry.
	d2, m2 := testSystem(t)
	d2.Corpus.Dict.Intern(media.Feature{Kind: media.Text, Name: "never-seen-tag"})
	if _, _, err := Load(m2, Config{}, path); err == nil || !strings.Contains(err.Error(), "features") {
		t.Errorf("grown dictionary err = %v, want a refusal naming features", err)
	}
}

// cutWriter passes n bytes through and fails the write that crosses n.
type cutWriter struct {
	w io.Writer
	n int
}

var errCut = errors.New("cut")

func (c *cutWriter) Write(p []byte) (int, error) {
	if len(p) > c.n {
		n, _ := c.w.Write(p[:c.n])
		c.n = 0
		return n, errCut
	}
	c.n -= len(p)
	return c.w.Write(p)
}

// TestSaveFailureKeepsPreviousSet is the durability contract of Save
// (ROADMAP 8d′): Save is atomicfile.Write around the snapshot writer, so a
// save that dies at any byte — before the manifest, inside it, at or inside
// a length prefix, mid-segment, one byte short — reports the error, leaves
// exactly one file in the directory, and that file still loads as the state
// the previous save cut and answers byte-identically. A completed save then
// replaces it whole.
func TestSaveFailureKeepsPreviousSet(t *testing.T) {
	_, m := testSystem(t)
	r, err := NewRouter(m, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := []media.ObjectID{0, 1, 2, 3, 4, 5, 6, 7}
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	old, err := r.Save(path)
	if err != nil {
		t.Fatal(err)
	}
	want := searchBytes(r, m.Stats.Corpus(), queries)

	// The corpus moves on, so a torn file could not pass for the old one.
	applyInserts(t, r.Insert)
	var next bytes.Buffer
	if err := r.StreamSnapshot(&next); err != nil {
		t.Fatal(err)
	}
	line, segs := snapshotFrames(t, next.Bytes())
	cuts := map[string]int{
		"before the manifest": 0,
		"inside the manifest": len(line) / 2,
		"last byte":           next.Len() - 1,
	}
	off := len(line)
	for s, seg := range segs {
		cuts[fmt.Sprintf("at shard %d's length prefix", s)] = off
		cuts[fmt.Sprintf("inside shard %d's length prefix", s)] = off + 4
		cuts[fmt.Sprintf("mid-segment %d", s)] = off + 8 + len(seg)/2
		off += 8 + len(seg)
	}
	for name, n := range cuts {
		err := atomicfile.Write(path, func(w io.Writer) error { return r.StreamSnapshot(&cutWriter{w: w, n: n}) })
		if !errors.Is(err, errCut) {
			t.Fatalf("%s (byte %d of %d): save err = %v, want the writer's", name, n, next.Len(), err)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Fatalf("%s: directory holds %d entries (%v) after a failed save, want only the snapshot", name, len(entries), err)
		}
		_, m2 := testSystem(t) // the dataset the first save pairs with
		loaded, man, err := Load(m2, Config{}, path)
		if err != nil {
			t.Fatalf("%s: snapshot no longer loads after a failed save: %v", name, err)
		}
		if *man != *old {
			t.Fatalf("%s: loaded manifest %+v, want the previous save's %+v", name, man, old)
		}
		if got := searchBytes(loaded, m2.Stats.Corpus(), queries); !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshot loaded after a failed save answers differently from the previous save's state", name)
		}
	}

	cur, err := r.Save(path)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Objects == old.Objects {
		t.Fatal("second save did not capture the inserts")
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, next.Bytes()) {
		t.Error("the file a completed save wrote is not the stream the router serves")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("directory holds %d entries (%v) after a completed save, want only the snapshot", len(entries), err)
	}
}

// TestReadSnapshotDrainsUnderRead: a segment callback that stops early does
// not misalign the next length prefix, and input that ends inside a segment
// is reported even when the callback never looked.
func TestReadSnapshotDrainsUnderRead(t *testing.T) {
	_, m := testSystem(t)
	r, err := NewRouter(m, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.StreamSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var heads []string
	peek := func(_ int, seg io.Reader) error {
		var magic [4]byte
		_, err := io.ReadFull(seg, magic[:])
		heads = append(heads, string(magic[:]))
		return err
	}
	if err := ReadSnapshot(bytes.NewReader(buf.Bytes()), func(*Manifest) error { return nil }, peek); err != nil {
		t.Fatal(err)
	}
	if len(heads) != 2 || heads[0] != "FSG1" || heads[1] != "FSG1" {
		t.Errorf("segment heads = %q, want two FSG1 magics", heads)
	}
	err = ReadSnapshot(bytes.NewReader(buf.Bytes()[:buf.Len()-1]), func(*Manifest) error { return nil }, peek)
	if err == nil || !strings.Contains(err.Error(), "shard: snapshot: shard 1") {
		t.Errorf("truncated last segment err = %v", err)
	}
}

// FuzzReadSnapshot is ROADMAP 8b's snapshot-stream target: whatever bytes
// arrive, the one reader of the framing answers a descriptive error or
// walks exactly the shards the manifest declares — never a panic, never an
// allocation sized by the input's claims. Under plain `go test` only the
// seeds run.
func FuzzReadSnapshot(f *testing.F) {
	_, m := testSystem(f)
	r, err := NewRouter(m, Config{Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.StreamSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	line, segs := snapshotFrames(f, valid)
	f.Add(valid)
	for _, n := range []int{0, len(line), len(line) + 8, len(line) + 8 + len(segs[0]), len(line) + 16 + len(segs[0]), len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Add(append(append([]byte(nil), line...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)) // oversized length prefix
	f.Add(segs[0])                                                                              // a bare FSG1 file
	f.Add([]byte(v1Manifest))
	f.Add(bytes.Repeat([]byte{'x'}, maxManifestLine+1)) // no newline within the cap

	f.Fuzz(func(t *testing.T, data []byte) {
		shards, seen := -1, 0
		err := ReadSnapshot(bytes.NewReader(data), func(man *Manifest) error {
			shards = man.Shards
			return nil
		}, func(s int, seg io.Reader) error {
			seen++
			_, err := index.Load(seg)
			return err
		})
		switch {
		case err != nil && !strings.HasPrefix(err.Error(), "shard: snapshot: "):
			t.Errorf("error %q does not say where it came from", err)
		case err == nil && seen != shards:
			t.Errorf("walked %d segments of a %d-shard manifest without an error", seen, shards)
		}
	})
}
