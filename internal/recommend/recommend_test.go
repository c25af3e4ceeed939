package recommend

import (
	"context"
	"math"
	"testing"

	"figfusion/internal/corr"
	"figfusion/internal/dataset"
	"figfusion/internal/fig"
	"figfusion/internal/media"
	"figfusion/internal/mrf"
)

func recData(t testing.TB) *dataset.RecDataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.NumObjects = 400
	cfg.NumTopics = 5
	cfg.TagsPerTopic = 8
	cfg.NoiseTags = 24
	cfg.UsersPerTopic = 8
	cfg.VisualVocab = 12
	cfg.VocabTrainImages = 40
	cfg.ImageBlocks = 2
	cfg.KMeansIters = 8
	rc := dataset.DefaultRecConfig()
	rc.NumUsers = 12
	rc.MinHistory = 3
	rd, err := dataset.GenerateRec(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

func newRec(t testing.TB, rd *dataset.RecDataset, cfg Config) *Recommender {
	t.Helper()
	r, err := New(rd.Model(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRecommendHitsFutureFavorites(t *testing.T) {
	rd := recData(t)
	r := newRec(t, rd, Config{Temporal: true})
	p := rd.Profiles[0]
	got := r.Recommend(rd.HistoryObjects(p), rd.Candidates, 10, rd.Now)
	if len(got) == 0 {
		t.Fatal("no recommendations")
	}
	// Recommendations should skew towards the user's persistent topics.
	interest := make(map[int]bool)
	for _, topic := range p.Interests {
		interest[topic] = true
	}
	onTopic := 0
	for _, it := range got {
		if interest[rd.Corpus.Object(it.ID).PrimaryTopic] {
			onTopic++
		}
	}
	if onTopic < len(got)/2 {
		t.Errorf("only %d/%d recommendations on persistent topics", onTopic, len(got))
	}
}

func TestTemporalDowweightsLapsedTransient(t *testing.T) {
	rd := recData(t)
	// Find a profile with a transient interest.
	var p *dataset.Profile
	for i := range rd.Profiles {
		if rd.Profiles[i].Transient >= 0 {
			p = &rd.Profiles[i]
			break
		}
	}
	if p == nil {
		t.Skip("no transient profile in sample")
	}
	params := mrf.DefaultParams()
	params.Delta = 0.3
	temporal := newRec(t, rd, Config{Temporal: true, Params: params})
	flat := newRec(t, rd, Config{Temporal: false, Params: params})
	hist := rd.HistoryObjects(*p)
	k := 20
	tGot := temporal.Recommend(hist, rd.Candidates, k, rd.Now)
	fGot := flat.Recommend(hist, rd.Candidates, k, rd.Now)
	tTrans, fTrans := 0, 0
	for _, it := range tGot {
		if rd.Corpus.Object(it.ID).PrimaryTopic == p.Transient {
			tTrans++
		}
	}
	for _, it := range fGot {
		if rd.Corpus.Object(it.ID).PrimaryTopic == p.Transient {
			fTrans++
		}
	}
	// The transient interest lapsed before the evaluation period; decay
	// must not recommend MORE of it than the flat model.
	if tTrans > fTrans {
		t.Errorf("temporal recommends more lapsed-transient items (%d) than flat (%d)", tTrans, fTrans)
	}
}

func TestBuildProfileWeights(t *testing.T) {
	rd := recData(t)
	params := mrf.DefaultParams()
	params.Delta = 0.5
	r := newRec(t, rd, Config{Temporal: true, Params: params})
	p := rd.Profiles[0]
	hist := rd.HistoryObjects(p)
	prof := r.BuildProfile(hist, rd.Now)
	if prof.Len() == 0 {
		t.Fatal("empty profile")
	}
	// Weights are in (0, len(history)] — each occurrence contributes at
	// most δ^0 = 1.
	for _, w := range prof.decay {
		if w <= 0 || w > float64(len(hist)) {
			t.Errorf("weight %v out of range", w)
		}
	}
	// Non-temporal weights are integer occurrence counts.
	rFlat := newRec(t, rd, Config{Temporal: false, Params: params})
	profFlat := rFlat.BuildProfile(hist, rd.Now)
	for _, w := range profFlat.decay {
		if w != math.Trunc(w) {
			t.Errorf("flat weight %v not integral", w)
		}
	}
}

func TestProfileCompressionScoresExactly(t *testing.T) {
	// Compressed scoring must equal naive per-occurrence scoring.
	rd := recData(t)
	params := mrf.DefaultParams()
	params.Delta = 0.6
	r := newRec(t, rd, Config{Temporal: true, Params: params})
	p := rd.Profiles[0]
	hist := rd.HistoryObjects(p)
	prof := r.BuildProfile(hist, rd.Now)
	cand := rd.Corpus.Object(rd.Candidates[0])
	got := r.Score(prof, cand)
	// Naive: sum ϕ_rec over raw per-object cliques.
	var want float64
	for _, o := range hist {
		tmp := r.BuildProfile([]*media.Object{o}, rd.Now)
		want += r.Score(tmp, cand)
	}
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Errorf("compressed score %v != naive %v", got, want)
	}
}

// TestOneMemoServesEveryConsumer: the Eq. 7 smoothing sums depend on the
// corpus alone and live on the model, so once one scorer has scored a
// candidate set, a scorer with other parameters and a recommender over the
// same model read the same (feature, object) sums without one further miss
// — and both score exactly as they do over a cold model.
func TestOneMemoServesEveryConsumer(t *testing.T) {
	rd := recData(t)
	history := []*media.Object{rd.Corpus.Object(0)}
	cands := rd.Candidates[:40]
	other := mrf.Params{Lambda: []float64{0.5, 0.3, 0.2}, Alpha: 0.6, Delta: 1}

	// scores runs one consumer over all candidates: a scorer with params p,
	// or — p nil — a recommender whose profile is the same history object.
	scores := func(m *corr.Model, p *mrf.Params) []float64 {
		t.Helper()
		var score func(o *media.Object) float64
		if p == nil {
			r, err := New(m, Config{Temporal: true})
			if err != nil {
				t.Fatal(err)
			}
			prof := r.BuildProfile(history, rd.Now)
			score = func(o *media.Object) float64 { return r.Score(prof, o) }
		} else {
			s, err := mrf.NewScorer(m, *p)
			if err != nil {
				t.Fatal(err)
			}
			score = s.Compile(fig.ProfileCliques(history, m, fig.Options{}, fig.EnumerateOptions{}), nil).Score
		}
		out := make([]float64, len(cands))
		for i, id := range cands {
			out[i] = score(rd.Corpus.Object(id))
		}
		return out
	}

	m := rd.Model()
	first := mrf.DefaultParams()
	scores(m, &first)
	filled := m.CacheStats().SmoothMisses
	if filled == 0 {
		t.Fatal("the first scorer filled nothing; the test is vacuous")
	}
	for name, p := range map[string]*mrf.Params{"second scorer": &other, "recommender": nil} {
		got := scores(m, p)
		if now := m.CacheStats().SmoothMisses; now != filled {
			t.Errorf("%s added %d smoothing misses over the warm model, want 0", name, now-filled)
		}
		want := scores(rd.Model(), p)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s, candidate %d: %v over the warm model, %v over a cold one", name, cands[i], got[i], want[i])
			}
		}
	}
}

func TestRecommendDeterministic(t *testing.T) {
	rd := recData(t)
	r := newRec(t, rd, Config{Temporal: true})
	p := rd.Profiles[0]
	hist := rd.HistoryObjects(p)
	a := r.Recommend(hist, rd.Candidates, 5, rd.Now)
	b := r.Recommend(hist, rd.Candidates, 5, rd.Now)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("rank %d differs", i)
		}
	}
}

func TestNewDefaultsAndValidation(t *testing.T) {
	rd := recData(t)
	r, err := New(rd.Model(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Scorer.Params.Lambda) == 0 {
		t.Error("params not defaulted")
	}
	if r.Temporal() {
		t.Error("default should be non-temporal")
	}
	if _, err := New(rd.Model(), Config{Params: mrf.Params{Lambda: []float64{1}, Alpha: 2, Delta: 1}}); err == nil {
		t.Error("want error for invalid params")
	}
}

func TestEmptyHistory(t *testing.T) {
	rd := recData(t)
	r := newRec(t, rd, Config{Temporal: true})
	got := r.Recommend(nil, rd.Candidates, 5, rd.Now)
	if len(got) != 0 {
		t.Errorf("empty history should recommend nothing, got %v", got)
	}
}

func BenchmarkRecommend(b *testing.B) {
	rd := recData(b)
	r := newRec(b, rd, Config{Temporal: true})
	p := rd.Profiles[0]
	hist := rd.HistoryObjects(p)
	prof := r.BuildProfile(hist, rd.Now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RecommendProfile(context.Background(), prof, rd.Candidates, 10); err != nil {
			b.Fatal(err)
		}
	}
}
