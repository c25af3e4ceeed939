package retrieval

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"figfusion/internal/media"
)

// fullRunBytes performs one complete, independent pipeline run — dataset
// generation from the fixed seed, threshold training with an injected
// seeded rng, index build, and top-k retrieval over a block of queries —
// and serializes the ranked ID lists plus the persisted index to bytes.
func fullRunBytes(t *testing.T) []byte {
	t.Helper()
	d := testData(t) // same dataset.Config (and seed) on every call
	m := d.Model()
	m.TrainThresholds(100, 0.35, rand.New(rand.NewSource(13)))
	e := newEngine(t, d, Config{})
	var buf bytes.Buffer
	for i := 0; i < 20; i++ {
		q := d.Corpus.Object(media.ObjectID(i))
		for _, it := range e.Search(q, 10, q.ID) {
			fmt.Fprintf(&buf, "%d>%d@%.17g ", q.ID, it.ID, it.Score)
		}
		buf.WriteByte('\n')
		// SearchScan exercises the fan-out scoring path, whose worker
		// partials must merge deterministically.
		for _, it := range e.SearchScan(q, 10, q.ID) {
			fmt.Fprintf(&buf, "%d>>%d ", q.ID, it.ID)
		}
		buf.WriteByte('\n')
	}
	if e.Index != nil {
		if err := e.Index.Save(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestDeterministicRuns is the EXPERIMENTS.md reproducibility contract as
// a regression test: two full index-build + retrieval runs from the same
// dataset seed must produce byte-identical ranked ID lists (and a
// byte-identical persisted index — map iteration order must never leak
// into either).
func TestDeterministicRuns(t *testing.T) {
	first := fullRunBytes(t)
	second := fullRunBytes(t)
	if !bytes.Equal(first, second) {
		limit := len(first)
		if len(second) < limit {
			limit = len(second)
		}
		at := limit
		for i := 0; i < limit; i++ {
			if first[i] != second[i] {
				at = i
				break
			}
		}
		t.Fatalf("two seeded runs diverge (lengths %d vs %d, first difference at byte %d)", len(first), len(second), at)
	}
}
