package mrf

import (
	"math"
	"testing"

	"figfusion/internal/corr"
	"figfusion/internal/fig"
	"figfusion/internal/lexicon"
	"figfusion/internal/media"
)

// world builds a corpus of four objects over topic words plus a taxonomy:
//
//	o0: hamster(2), animal(1)     (pets)
//	o1: hamster(1), vegetable(1)  (pets)
//	o2: car(2), engine(1)         (vehicles)
//	o3: hamster(1), car(1)        (mixed)
func world(t testing.TB) (*media.Corpus, *corr.Model, map[string]media.FID) {
	t.Helper()
	c := media.NewCorpus()
	tf := func(n string) media.Feature { return media.Feature{Kind: media.Text, Name: n} }
	add := func(names []string, counts []int, month int) {
		t.Helper()
		feats := make([]media.Feature, len(names))
		for i, n := range names {
			feats[i] = tf(n)
		}
		if _, err := c.Add(feats, counts, month); err != nil {
			t.Fatal(err)
		}
	}
	add([]string{"hamster", "animal"}, []int{2, 1}, 0)
	add([]string{"hamster", "vegetable"}, []int{1, 1}, 1)
	add([]string{"car", "engine"}, []int{2, 1}, 2)
	add([]string{"hamster", "car"}, []int{1, 1}, 3)
	tax, err := lexicon.Generate([]lexicon.TopicGroup{
		{Name: "pets", Domain: "living", Words: []string{"hamster", "animal", "vegetable"}},
		{Name: "vehicles", Domain: "artifact", Words: []string{"car", "engine"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := corr.NewModel(corr.NewStats(c), tax, nil, nil, nil, nil)
	ids := make(map[string]media.FID)
	for _, n := range []string{"hamster", "animal", "vegetable", "car", "engine"} {
		id, ok := c.Dict.Lookup(tf(n))
		if !ok {
			t.Fatalf("missing %s", n)
		}
		ids[n] = id
	}
	return c, m, ids
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("DefaultParams invalid: %v", err)
	}
	bad := []Params{
		{Lambda: nil, Alpha: 0.5, Delta: 0.5},
		{Lambda: []float64{-1}, Alpha: 0.5, Delta: 0.5},
		{Lambda: []float64{1}, Alpha: -0.1, Delta: 0.5},
		{Lambda: []float64{1}, Alpha: 1.1, Delta: 0.5},
		{Lambda: []float64{1}, Alpha: 0.5, Delta: 0},
		{Lambda: []float64{1}, Alpha: 0.5, Delta: 1.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestLambdaFor(t *testing.T) {
	p := Params{Lambda: []float64{0.7, 0.3}}
	if got := p.LambdaFor(1); got != 0.7 {
		t.Errorf("LambdaFor(1) = %v", got)
	}
	if got := p.LambdaFor(2); got != 0.3 {
		t.Errorf("LambdaFor(2) = %v", got)
	}
	if got := p.LambdaFor(3); got != 0 {
		t.Errorf("LambdaFor(3) = %v, want 0 for oversize cliques", got)
	}
	if got := p.LambdaFor(0); got != 0 {
		t.Errorf("LambdaFor(0) = %v, want 0", got)
	}
}

func TestPotentialFrequencyTerm(t *testing.T) {
	c, m, ids := world(t)
	p := Params{Lambda: []float64{1}, Alpha: 0, UseCorS: false, Delta: 1}
	s, err := NewScorer(m, p)
	if err != nil {
		t.Fatal(err)
	}
	o0 := c.Object(0) // hamster(2), animal(1), total 3
	cl := fig.Clique{Feats: []media.FID{ids["hamster"]}}
	// ϕ = λ · freq/|O| = 1 · 2/3.
	if got := s.Potential(cl, o0); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Potential = %v, want 2/3", got)
	}
	// Pair clique hamster+animal: min count = 1 → 1/3, but λ for size-2
	// cliques is 0 here.
	pair := fig.Clique{Feats: []media.FID{ids["hamster"], ids["animal"]}}
	if got := s.Potential(pair, o0); got != 0 {
		t.Errorf("pair Potential with 1-entry lambda = %v, want 0", got)
	}
}

func TestPotentialPairUsesMinCount(t *testing.T) {
	c, m, ids := world(t)
	p := Params{Lambda: []float64{0, 1}, Alpha: 0, UseCorS: false, Delta: 1}
	s, err := NewScorer(m, p)
	if err != nil {
		t.Fatal(err)
	}
	o0 := c.Object(0)
	pair := fig.Clique{Feats: []media.FID{ids["hamster"], ids["animal"]}}
	// min(2,1)/3 = 1/3.
	if got := s.Potential(pair, o0); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Potential = %v, want 1/3", got)
	}
	// A pair with an absent member has zero frequency term.
	miss := fig.Clique{Feats: []media.FID{ids["hamster"], ids["car"]}}
	if got := s.Potential(miss, o0); got != 0 {
		t.Errorf("Potential with absent feature = %v, want 0 (alpha=0)", got)
	}
}

func TestSmoothingRewardsCorrelatedObjects(t *testing.T) {
	c, m, ids := world(t)
	p := Params{Lambda: []float64{1}, Alpha: 1, UseCorS: false, Delta: 1}
	s, err := NewScorer(m, p)
	if err != nil {
		t.Fatal(err)
	}
	// Query feature "animal" does not occur in o1 (hamster, vegetable) nor
	// in o2 (car, engine), but is taxonomically close to o1's features.
	cl := fig.Clique{Feats: []media.FID{ids["animal"]}}
	scorePets := s.Potential(cl, c.Object(1))
	scoreCars := s.Potential(cl, c.Object(2))
	if !(scorePets > scoreCars) {
		t.Errorf("smoothing should prefer pets object: %v vs %v", scorePets, scoreCars)
	}
}

func TestPotentialCorSWeighting(t *testing.T) {
	c, m, ids := world(t)
	pNo := Params{Lambda: []float64{0, 1}, Alpha: 0, UseCorS: false, Delta: 1}
	pYes := Params{Lambda: []float64{0, 1}, Alpha: 0, UseCorS: true, Delta: 1}
	sNo, err := NewScorer(m, pNo)
	if err != nil {
		t.Fatal(err)
	}
	sYes, err := NewScorer(m, pYes)
	if err != nil {
		t.Fatal(err)
	}
	o0 := c.Object(0)
	pair := fig.Clique{Feats: []media.FID{ids["hamster"], ids["animal"]}}
	corS := sYes.CorS(pair)
	want := sNo.Potential(pair, o0) * corS
	if got := sYes.Potential(pair, o0); math.Abs(got-want) > 1e-12 {
		t.Errorf("CorS weighting: got %v, want %v", got, want)
	}
}

func TestCorSClampedNonNegative(t *testing.T) {
	_, m, ids := world(t)
	s, err := NewScorer(m, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// hamster and engine never co-occur → negative covariance → clamped 0.
	cl := fig.Clique{Feats: []media.FID{ids["hamster"], ids["engine"]}}
	if got := s.CorS(cl); got != 0 {
		t.Errorf("CorS = %v, want clamp to 0", got)
	}
	// Cached second call agrees.
	if got := s.CorS(cl); got != 0 {
		t.Errorf("cached CorS = %v", got)
	}
}

func TestScoreSumsPotentials(t *testing.T) {
	c, m, ids := world(t)
	s, err := NewScorer(m, Params{Lambda: []float64{1, 1}, Alpha: 0, UseCorS: false, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	o0 := c.Object(0)
	cliques := []fig.Clique{
		{Feats: []media.FID{ids["hamster"]}},
		{Feats: []media.FID{ids["animal"]}},
		{Feats: []media.FID{ids["hamster"], ids["animal"]}},
	}
	var want float64
	for _, cl := range cliques {
		want += s.Potential(cl, o0)
	}
	if got := s.Score(cliques, o0); math.Abs(got-want) > 1e-12 {
		t.Errorf("Score = %v, want %v", got, want)
	}
	if got := s.Score(nil, o0); got != 0 {
		t.Errorf("empty Score = %v, want 0", got)
	}
}

func TestScoreRanksTopicMatchFirst(t *testing.T) {
	c, m, ids := world(t)
	s, err := NewScorer(m, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Query: a pets object.
	query := []fig.Clique{
		{Feats: []media.FID{ids["hamster"]}},
		{Feats: []media.FID{ids["vegetable"]}},
	}
	pets := s.Score(query, c.Object(1))  // hamster+vegetable
	cars := s.Score(query, c.Object(2))  // car+engine
	mixed := s.Score(query, c.Object(3)) // hamster+car
	if !(pets > mixed && mixed > cars) {
		t.Errorf("ranking wrong: pets=%v mixed=%v cars=%v", pets, mixed, cars)
	}
}

func TestNewScorerRejectsInvalidParams(t *testing.T) {
	_, m, _ := world(t)
	if _, err := NewScorer(m, Params{}); err == nil {
		t.Error("want error for zero params")
	}
}

func TestTrainImprovesObjective(t *testing.T) {
	// Synthetic objective: best at lambda ≈ (0.8, 0.2), alpha = 0.25.
	target := Params{Lambda: []float64{0.8, 0.2}, Alpha: 0.25}
	objective := func(p Params) float64 {
		d := 0.0
		for i := range p.Lambda {
			diff := p.Lambda[i] - target.Lambda[i]
			d += diff * diff
		}
		da := p.Alpha - target.Alpha
		return -(d + da*da)
	}
	base := Params{Lambda: []float64{0.5, 0.5}, Alpha: 0.75, Delta: 1}
	best, score := Train(base, objective, 5)
	if score < objective(base) {
		t.Errorf("training made things worse: %v < %v", score, objective(base))
	}
	if math.Abs(best.Alpha-0.25) > 1e-9 {
		t.Errorf("alpha = %v, want 0.25", best.Alpha)
	}
	var sum float64
	for _, l := range best.Lambda {
		sum += l
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("lambda not normalised: sum=%v", sum)
	}
}

func TestTrainDelta(t *testing.T) {
	base := Params{Lambda: []float64{1}, Alpha: 0, Delta: 1}
	objective := func(p Params) float64 { return -math.Abs(p.Delta - 0.4) }
	best, _ := TrainDelta(base, objective, nil)
	if best.Delta != 0.4 {
		t.Errorf("Delta = %v, want 0.4", best.Delta)
	}
	// Custom grid.
	best2, _ := TrainDelta(base, objective, []float64{0.9, 0.5})
	if best2.Delta != 0.5 {
		t.Errorf("Delta = %v, want 0.5 from custom grid", best2.Delta)
	}
}

func TestNormalizeZeroVector(t *testing.T) {
	l := []float64{0, 0, 0, 0}
	normalize(l)
	for _, v := range l {
		if math.Abs(v-0.25) > 1e-12 {
			t.Errorf("normalize zero vector → %v, want uniform", l)
		}
	}
}

func BenchmarkPotential(b *testing.B) {
	c, m, ids := world(b)
	s, err := NewScorer(m, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	o0 := c.Object(0)
	cl := fig.Clique{Feats: []media.FID{ids["hamster"], ids["animal"]}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Potential(cl, o0)
	}
}

func TestCorSSingletonDispersion(t *testing.T) {
	c, m, ids := world(t)
	s, err := NewScorer(m, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Singleton weight = sd/mean of the feature's count distribution.
	fid := ids["hamster"]
	mean := m.Stats.Mean(fid)
	want := math.Sqrt(m.Stats.Variance(fid)) / mean
	got := s.CorS(fig.Clique{Feats: []media.FID{fid}})
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("singleton CorS = %v, want dispersion %v", got, want)
	}
	// A rarer feature gets a larger singleton weight than a common one:
	// hamster appears in 3 of 4 objects, engine in 1 of 4.
	rare := s.CorS(fig.Clique{Feats: []media.FID{ids["engine"]}})
	common := s.CorS(fig.Clique{Feats: []media.FID{ids["hamster"]}})
	if rare <= common {
		t.Errorf("rare feature weight %v not above common %v", rare, common)
	}
	// Absent features (mean 0) weigh 0.
	if got := s.CorS(fig.Clique{Feats: []media.FID{media.FID(c.Dict.Len() + 9)}}); got != 0 {
		t.Errorf("unknown feature weight = %v, want 0", got)
	}
}

func TestCorSPairIsNormalizedPearson(t *testing.T) {
	c, m, ids := world(t)
	s, err := NewScorer(m, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pair := fig.Clique{Feats: []media.FID{ids["hamster"], ids["animal"]}}
	raw := m.Stats.CorS(pair.Feats)
	want := raw / float64(c.Len())
	if want < 0 {
		want = 0
	}
	if got := s.CorS(pair); math.Abs(got-want) > 1e-12 {
		t.Errorf("pair CorS = %v, want %v", got, want)
	}
	if got := s.CorS(pair); got < 0 || got > 1+1e-9 {
		t.Errorf("pair CorS = %v outside Pearson range", got)
	}
}
