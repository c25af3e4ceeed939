package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"figfusion/internal/corr"
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

func TestLoadValidation(t *testing.T) {
	d, m := testSystem(t)
	r, err := NewRouter(m, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := filepath.Join(dir, "snap")
	man, err := r.Save(base)
	if err != nil {
		t.Fatal(err)
	}

	freshModel := func() *corr.Model {
		m2 := d.Model()
		m2.Thresholds = m.Thresholds
		return m2
	}

	// Missing manifest.
	if _, _, err := Load(freshModel(), Config{}, filepath.Join(dir, "nope")); err == nil {
		t.Error("missing manifest accepted")
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
	// Swapped shard files must fail the routing integrity check.
	f0, f1 := filepath.Join(dir, man.Files[0]), filepath.Join(dir, man.Files[1])
	tmp := filepath.Join(dir, "tmp")
	for _, mv := range [][2]string{{f0, tmp}, {f1, f0}, {tmp, f1}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := Load(freshModel(), Config{}, base); err == nil || !strings.Contains(err.Error(), "routes to shard") {
		t.Errorf("swapped shard files err = %v", err)
	}
}

// TestSaveFailureKeepsPreviousSet is the durability contract of Save: a
// save that dies after k of n shard files — here after 1 of 3, on a
// directory squatting on shard 1's next file name — leaves a set that
// still loads as the state the previous save cut, and the next save
// replaces it whole.
func TestSaveFailureKeepsPreviousSet(t *testing.T) {
	_, m := testSystem(t)
	r, err := NewRouter(m, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	queries := []media.ObjectID{0, 1, 2, 3, 4, 5, 6, 7}
	dir := t.TempDir()
	base := filepath.Join(dir, "snap")
	old, err := r.Save(base)
	if err != nil {
		t.Fatal(err)
	}
	want := searchBytes(r, m.Stats.Corpus(), queries)

	// The corpus moves on, so a mixed set could not pass for the old one.
	applyInserts(t, r.Insert)
	squatter := filepath.Join(dir, shardName(base, 1, true))
	if err := os.Mkdir(squatter, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Save(base); err == nil {
		t.Fatal("save over an unwritable shard file reported success")
	}

	_, m2 := testSystem(t) // the dataset the first save pairs with
	loaded, man, err := Load(m2, Config{}, base)
	if err != nil {
		t.Fatalf("set no longer loads after a failed save: %v", err)
	}
	if man.Objects != old.Objects || man.Inserts != old.Inserts {
		t.Fatalf("loaded manifest %+v, want the previous save's %+v", man, old)
	}
	if got := searchBytes(loaded, m2.Stats.Corpus(), queries); !bytes.Equal(got, want) {
		t.Fatal("set loaded after a failed save answers differently from the previous save's state")
	}

	if err := os.Remove(squatter); err != nil {
		t.Fatal(err)
	}
	cur, err := r.Save(base)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Objects == old.Objects {
		t.Fatal("second save did not capture the inserts")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1+len(cur.Files) {
		t.Errorf("directory holds %d entries after a completed save, want the manifest and its %d shard files", len(entries), len(cur.Files))
	}
}
