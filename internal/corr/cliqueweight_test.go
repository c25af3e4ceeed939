package corr

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"figfusion/internal/media"
	"figfusion/internal/numeric"
)

// TestCliqueWeight pins the Eq. 9 importance weight served by both the
// scorer and the inverted index: 0 for the empty set, standardized
// dispersion sd/mean for singletons, and CorS normalized by |D| (clamped
// non-negative) for larger cliques.
func TestCliqueWeight(t *testing.T) {
	c, ids := buildTinyCorpus(t)
	s := NewStats(c)
	if got := s.CliqueWeight(nil); got != 0 {
		t.Errorf("empty CliqueWeight = %v, want 0", got)
	}
	// cat counts are [2,1,0,0]: mean 0.75, variance 0.6875.
	want := math.Sqrt(0.6875) / 0.75
	if got := s.CliqueWeight([]media.FID{ids["cat"]}); math.Abs(got-want) > 1e-12 {
		t.Errorf("singleton CliqueWeight = %v, want %v", got, want)
	}
	pair := []media.FID{ids["cat"], ids["dog"]}
	raw := s.CorS(pair) / float64(c.Len())
	if raw < 0 {
		raw = 0
	}
	if got := s.CliqueWeight(pair); got != raw {
		t.Errorf("pair CliqueWeight = %v, want CorS/|D| = %v", got, raw)
	}
	// cat and car never co-occur and are anti-correlated; the clamp must
	// map the negative CorS to 0 rather than a score-negating weight.
	anti := []media.FID{ids["cat"], ids["car"]}
	if s.CorS(anti) >= 0 {
		t.Fatalf("fixture drift: CorS(cat,car) = %v, want negative", s.CorS(anti))
	}
	if got := s.CliqueWeight(anti); got != 0 {
		t.Errorf("anti-correlated CliqueWeight = %v, want 0", got)
	}
}

// TestCliqueWeightZeroMeanSingleton covers the mean = 0 guard: a feature
// can enter the dictionary without corpus mass (e.g. vocabulary padding);
// its weight must be 0, not NaN.
func TestCliqueWeightZeroMeanSingleton(t *testing.T) {
	c, _ := buildTinyCorpus(t)
	s := NewStats(c)
	ghost := media.FID(c.Dict.Len() + 5)
	if got := s.CliqueWeight([]media.FID{ghost}); got != 0 {
		t.Errorf("zero-mean singleton CliqueWeight = %v, want 0", got)
	}
}

// unionCorS is the pre-streaming reference: materialise the sorted union of
// the clique's posting lists, then walk it accumulating the standardized
// products in the same per-object, fids-ordered sequence CorSWith streams.
// The cursor merge must reproduce it bit for bit.
func unionCorS(s *Stats, fids []media.FID) float64 {
	if len(fids) <= 1 {
		return 1
	}
	n := s.corpus.Len()
	if n == 0 {
		return 0
	}
	k := len(fids)
	means := make([]float64, k)
	sds := make([]float64, k)
	for j, fid := range fids {
		means[j] = s.Mean(fid)
		v := s.Variance(fid)
		if numeric.IsZero(v) {
			return 0
		}
		sds[j] = math.Sqrt(v)
	}
	seen := map[media.ObjectID]bool{}
	var union []media.ObjectID
	for _, fid := range fids {
		for _, oid := range s.Postings(fid) {
			if !seen[oid] {
				seen[oid] = true
				union = append(union, oid)
			}
		}
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	var sum float64
	for _, oid := range union {
		o := s.corpus.Object(oid)
		term := 1.0
		for j, fid := range fids {
			term *= (float64(o.Count(fid)) - means[j]) / sds[j]
		}
		sum += term
	}
	absent := 1.0
	for j := range fids {
		absent *= -means[j] / sds[j]
	}
	sum += float64(n-len(union)) * absent
	return sum
}

// TestCorSWithMatchesUnionReference asserts exact (bit-level) agreement
// between the streaming cursor merge and the materialised-union reference on
// random corpora — the property the index's stored CorS column depends on.
func TestCorSWithMatchesUnionReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := media.NewCorpus()
		nObj := 4 + rng.Intn(40)
		vocab := []string{"a", "b", "c", "d", "e", "f"}
		for i := 0; i < nObj; i++ {
			var feats []media.Feature
			var counts []int
			for _, w := range vocab {
				if rng.Float64() < 0.4 {
					feats = append(feats, media.Feature{Kind: media.Text, Name: w})
					counts = append(counts, 1+rng.Intn(3))
				}
			}
			if len(feats) == 0 {
				feats = append(feats, media.Feature{Kind: media.Text, Name: "a"})
				counts = append(counts, 1)
			}
			if _, err := c.Add(feats, counts, 0); err != nil {
				return false
			}
		}
		s := NewStats(c)
		var fids []media.FID
		for _, w := range vocab {
			if id, ok := c.Dict.Lookup(media.Feature{Kind: media.Text, Name: w}); ok {
				fids = append(fids, id)
			}
		}
		if len(fids) < 2 {
			return true
		}
		k := 2 + rng.Intn(len(fids)-1)
		pick := fids[:k]
		var ws WeightScratch
		// Exact equality, twice through the same scratch: reuse must not
		// leak state between calls.
		first := s.CorSWith(pick, &ws)
		if first != unionCorS(s, pick) {
			t.Errorf("seed %d k=%d: streaming CorS %v != union reference %v", seed, k, first, unionCorS(s, pick))
			return false
		}
		return s.CorSWith(pick, &ws) == first
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCliqueWeightWithScratchReuse: one scratch serving many cliques of
// varying size must give the same weights as fresh scratch per call.
func TestCliqueWeightWithScratchReuse(t *testing.T) {
	c, ids := buildTinyCorpus(t)
	s := NewStats(c)
	cliques := [][]media.FID{
		{ids["cat"]},
		{ids["cat"], ids["dog"]},
		{ids["cat"], ids["dog"], ids["u1"]},
		{ids["dog"], ids["u2"]},
		nil,
		{ids["cat"], ids["car"]},
	}
	var shared WeightScratch
	for i, fids := range cliques {
		if got, want := s.CliqueWeightWith(fids, &shared), s.CliqueWeight(fids); got != want {
			t.Errorf("clique %d: shared-scratch weight %v != fresh-scratch %v", i, got, want)
		}
	}
}

// TestTrainThresholdsWorkersDeterministic: training must land on identical
// thresholds at any fan-out — pair sampling (the rng stream) stays serial
// and the quantiles are taken over sample lists assembled in sample order.
func TestTrainThresholdsWorkersDeterministic(t *testing.T) {
	trainAt := func(workers int) Thresholds {
		m, _ := buildModel(t)
		m.TrainThresholdsWorkers(150, 0.4, rand.New(rand.NewSource(21)), workers)
		return m.Thresholds
	}
	ref := trainAt(1)
	for _, w := range []int{2, 3, 4, 0} {
		if got := trainAt(w); got != ref {
			t.Errorf("workers=%d: thresholds %v differ from serial %v", w, got, ref)
		}
	}
}

// benchStats builds a corpus shaped like the index weighting workload: a
// few hundred objects over a medium vocabulary, yielding posting lists long
// enough that per-call scratch allocation shows up.
func benchStats(b *testing.B) (*Stats, [][]media.FID) {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	c := media.NewCorpus()
	vocab := make([]media.Feature, 40)
	for i := range vocab {
		vocab[i] = media.Feature{Kind: media.Text, Name: fmt.Sprintf("w%02d", i)}
	}
	for i := 0; i < 400; i++ {
		var feats []media.Feature
		var counts []int
		for _, f := range vocab {
			if rng.Float64() < 0.15 {
				feats = append(feats, f)
				counts = append(counts, 1+rng.Intn(3))
			}
		}
		if len(feats) == 0 {
			feats = append(feats, vocab[0])
			counts = append(counts, 1)
		}
		if _, err := c.Add(feats, counts, 0); err != nil {
			b.Fatal(err)
		}
	}
	s := NewStats(c)
	var cliques [][]media.FID
	for i := 0; i+2 < len(vocab); i++ {
		a, _ := c.Dict.Lookup(vocab[i])
		bb, _ := c.Dict.Lookup(vocab[i+1])
		cc, _ := c.Dict.Lookup(vocab[i+2])
		cliques = append(cliques, []media.FID{a, bb}, []media.FID{a, bb, cc})
	}
	return s, cliques
}

// BenchmarkCliqueWeightFreshScratch measures the old per-call cost (every
// call allocates its own scratch, as CliqueWeight does).
func BenchmarkCliqueWeightFreshScratch(b *testing.B) {
	s, cliques := benchStats(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CliqueWeight(cliques[i%len(cliques)])
	}
}

// BenchmarkCliqueWeightSharedScratch measures the bulk-weighting path the
// index build uses: one scratch reused across every clique.
func BenchmarkCliqueWeightSharedScratch(b *testing.B) {
	s, cliques := benchStats(b)
	var ws WeightScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CliqueWeightWith(cliques[i%len(cliques)], &ws)
	}
}
