package corr

import (
	"fmt"
	"math/rand"
	"testing"

	"figfusion/internal/media"
)

// randomFeatures draws one object's features from a vocabulary of vocab
// names (duplicates included, which Corpus.Add merges) with counts in
// [1, 7], so pairs repeat across objects and co-moments exceed one term.
func randomFeatures(rng *rand.Rand, vocab int) ([]media.Feature, []int) {
	n := 1 + rng.Intn(6)
	feats, counts := make([]media.Feature, n), make([]int, n)
	for i := range feats {
		feats[i] = media.Feature{Kind: media.Kind(rng.Intn(media.NumKinds)), Name: fmt.Sprint("f", rng.Intn(vocab))}
		counts[i] = 1 + rng.Intn(7)
	}
	return feats, counts
}

// bruteDot is n⃗a·n⃗b summed object by object from the corpus itself.
func bruteDot(c *media.Corpus, a, b media.FID) float64 {
	var dot float64
	for _, o := range c.Objects {
		dot += float64(o.Count(a)) * float64(o.Count(b))
	}
	return dot
}

// TestPairStore pins the pair store to its definition on random small
// corpora: Dot equals the per-object sum for every pair — a == b, pairs
// that share no object and FIDs past the dictionary included — and after
// a run of Model.Append calls that intern new features, the incrementally
// grown Stats answers Dot and Cosine with the same bits as a fresh
// NewStats over the grown corpus.
func TestPairStore(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := media.NewCorpus()
		for i, n := 0, 5+rng.Intn(30); i < n; i++ {
			feats, counts := randomFeatures(rng, 12)
			if _, err := c.Add(feats, counts, 0); err != nil {
				t.Fatal(err)
			}
		}
		s := NewStats(c)
		beyond := media.FID(c.Dict.Len() + 3)
		for a := media.FID(0); a <= beyond; a++ {
			for b := media.FID(0); b <= beyond; b++ {
				if got, want := s.Dot(a, b), bruteDot(c, a, b); got != want {
					t.Fatalf("seed %d: Dot(%d, %d) = %v, per-object sum %v", seed, a, b, got, want)
				}
			}
		}

		m := NewModel(s, nil, nil, nil, nil, nil)
		for i, n := 0, 1+rng.Intn(20); i < n; i++ {
			feats, counts := randomFeatures(rng, 24) // names past f11 are new
			if _, err := m.Append(feats, counts, 0); err != nil {
				t.Fatal(err)
			}
		}
		fresh := NewStats(c)
		for a := media.FID(0); int(a) <= c.Dict.Len(); a++ {
			for b := media.FID(0); int(b) <= c.Dict.Len(); b++ {
				if got, want := s.Dot(a, b), fresh.Dot(a, b); got != want {
					t.Fatalf("seed %d: grown Dot(%d, %d) = %v, fresh %v", seed, a, b, got, want)
				}
				if got, want := s.Cosine(a, b), fresh.Cosine(a, b); got != want {
					t.Fatalf("seed %d: grown Cosine(%d, %d) = %v, fresh %v", seed, a, b, got, want)
				}
			}
		}
	}
}
