package retrieval

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"figfusion/internal/dataset"
	"figfusion/internal/index"
	"figfusion/internal/media"
	"figfusion/internal/obs"
	"figfusion/internal/topk"
)

// pruneEngine builds an engine with the given config; alpha >= 0 swaps in
// a parameter clone with that smoothing weight (alpha = 0 makes every
// block bound a pure set-frequency bound, the other end of the range from
// the default 0.25).
func pruneEngine(t *testing.T, d *dataset.Dataset, cfg Config, alpha float64) *Engine {
	t.Helper()
	e := newEngine(t, d, cfg)
	if alpha >= 0 {
		params := e.Scorer.Params
		params.Alpha = alpha
		var err error
		e, err = e.WithParams(params)
		if err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// pruneRunBytes serializes the ranked IDs and exact scores of every
// indexed search path — direct, prepared, TA and prepared TA — over a
// fixed query set. Byte equality of two such transcripts is the pruning
// exactness contract.
func pruneRunBytes(t *testing.T, d *dataset.Dataset, e *Engine, queries int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < queries; i++ {
		q := d.Corpus.Object(media.ObjectID(i))
		p := e.Prepare(q)
		for pi, items := range [][]topk.Item{
			e.Search(q, 10, q.ID),
			e.SearchPrepared(p, 10, q.ID),
			e.SearchTA(q, 10, q.ID),
			e.SearchTAPrepared(p, 10, q.ID),
		} {
			for _, it := range items {
				fmt.Fprintf(&buf, "%d/%d>%d@%.17g ", pi, q.ID, it.ID, it.Score)
			}
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestBlockMaxParity is the exactness gate of the pruning layer: the
// pruned engine's results are byte-identical to the unpruned engine's on
// every indexed search path, at every worker count, at the default
// smoothing weight and at alpha = 0.
func TestBlockMaxParity(t *testing.T) {
	d := testData(t)
	for _, alpha := range []float64{-1, 0} {
		base := pruneRunBytes(t, d, pruneEngine(t, d, Config{}, alpha), 20)
		for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
			e := pruneEngine(t, d, Config{Workers: w, Pruning: PruneBlockMax}, alpha)
			if got := pruneRunBytes(t, d, e, 20); !bytes.Equal(base, got) {
				t.Fatalf("alpha=%v workers=%d: blockmax diverges from unpruned", alpha, w)
			}
		}
	}
}

// TestBlockMaxParityAcrossSnapshotAndInsert walks the pruned engine
// through the index lifecycle: a snapshot round trip (summaries persist
// and keep pruning), then an insert (touched summaries refresh, untouched
// ones go stale and must stop pruning rather than serve pre-insert
// bounds). At every step the pruned transcript must equal the unpruned
// one.
func TestBlockMaxParityAcrossSnapshotAndInsert(t *testing.T) {
	d := testData(t)
	for _, alpha := range []float64{-1, 0} {
		off := pruneEngine(t, d, Config{}, alpha)
		bm := pruneEngine(t, d, Config{Pruning: PruneBlockMax}, alpha)
		if !bytes.Equal(pruneRunBytes(t, d, off, 20), pruneRunBytes(t, d, bm, 20)) {
			t.Fatalf("alpha=%v: fresh index: blockmax diverges", alpha)
		}

		// Snapshot round trip while the model is still at generation 0, so
		// the loaded summaries come back fresh and actually prune.
		var buf bytes.Buffer
		if err := bm.Index.SaveAt(&buf, bm.Model.Generation()); err != nil {
			t.Fatal(err)
		}
		loaded, err := index.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		lbm := pruneEngine(t, d, Config{Index: loaded, Pruning: PruneBlockMax}, alpha)
		if !bytes.Equal(pruneRunBytes(t, d, off, 20), pruneRunBytes(t, d, lbm, 20)) {
			t.Fatalf("alpha=%v: loaded index: blockmax diverges", alpha)
		}

		// Insert through the pruned engine; mirror the object into the
		// other engines so all three serve the same corpus AND the same
		// statistics. The engines own separate models over the shared
		// corpus, so each mirror needs the full routed-ingestion sequence
		// (stats append, cache invalidation, scorer reset, index) — the
		// same steps Engine.Insert runs, minus the corpus.Add that already
		// happened once.
		src := d.Corpus.Object(5)
		feats, counts := cloneFeatures(d, src)
		o, err := bm.Insert(feats, counts, src.Month)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*Engine{off, lbm} {
			if err := e.Model.Stats.Append(o); err != nil {
				t.Fatal(err)
			}
			e.Model.InvalidateCache()
			if err := e.IndexObject(o); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(pruneRunBytes(t, d, off, 20), pruneRunBytes(t, d, bm, 20)) {
			t.Fatalf("alpha=%v: after insert: blockmax diverges", alpha)
		}
		// The loaded index's untouched entries are now stale at the grown
		// generation: pruning must degrade to exact unpruned scoring, not
		// serve pre-insert bounds.
		if !bytes.Equal(pruneRunBytes(t, d, off, 20), pruneRunBytes(t, d, lbm, 20)) {
			t.Fatalf("alpha=%v: stale loaded index after insert: blockmax diverges", alpha)
		}
	}
}

// TestPruneCounters: the block skipper reports its work through the
// retrieval.prune.blocks.skipped registry counter — and actually does work
// on this corpus (nonzero skips), which is what the perf claim and the
// /v1/metrics surface rest on.
func TestPruneCounters(t *testing.T) {
	d := testData(t)
	reg := obs.NewRegistry()
	e := newEngine(t, d, Config{Pruning: PruneBlockMax, Metrics: reg})
	for i := 0; i < 20; i++ {
		q := d.Corpus.Object(media.ObjectID(i))
		e.SearchTA(q, 5, q.ID)
	}
	if reg.Counter("retrieval.prune.blocks.skipped").Value() == 0 {
		t.Error("lazy TA never skipped a block")
	}
}

// TestPruningOffNoCounters: with pruning off the engine must not touch the
// prune counter (the eager path materialises every block).
func TestPruningOffNoCounters(t *testing.T) {
	d := testData(t)
	reg := obs.NewRegistry()
	e := newEngine(t, d, Config{Metrics: reg})
	for i := 0; i < 5; i++ {
		q := d.Corpus.Object(media.ObjectID(i))
		e.Search(q, 5, q.ID)
		e.SearchTA(q, 5, q.ID)
	}
	if v := reg.Counter("retrieval.prune.blocks.skipped").Value(); v != 0 {
		t.Errorf("retrieval.prune.blocks.skipped = %d with pruning off", v)
	}
}

func TestParsePruningMode(t *testing.T) {
	cases := map[string]PruningMode{
		"off":      PruneOff,
		"OFF":      PruneOff,
		"blockmax": PruneBlockMax,
		"BlockMax": PruneBlockMax,
	}
	for in, want := range cases {
		got, err := ParsePruningMode(in)
		if err != nil || got != want {
			t.Errorf("ParsePruningMode(%q) = %v, %v; want %v", in, got, err, want)
		}
		if rt, err := ParsePruningMode(want.String()); err != nil || rt != want {
			t.Errorf("round trip of %v failed: %v, %v", want, rt, err)
		}
	}
	if _, err := ParsePruningMode("wand"); err == nil {
		t.Error("unknown mode accepted")
	}
}
