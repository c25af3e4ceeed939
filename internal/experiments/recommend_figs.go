package experiments

import (
	"fmt"
	"math/rand"

	"figfusion/internal/baselines"
	"figfusion/internal/dataset"
	"figfusion/internal/eval"
	"figfusion/internal/fig"
	"figfusion/internal/media"
	"figfusion/internal/mrf"
	"figfusion/internal/recommend"
)

// figure10Deltas is the decay grid of Figure 10.
var figure10Deltas = []float64{1.0, 0.8, 0.6, 0.4, 0.2, 0.1}

// recommendNs are the N values of Figure 11.
var recommendNs = []int{10, 20, 30, 40, 50}

// Figure10 reproduces "Recommendation Performance of Varied Decaying
// Parameter": Precision@10 of the temporal FIG-T recommender as δ sweeps
// from 1 (no decay) down to 0.1, for the full model and the Text/User
// single-modality variants the paper plots alongside it. The paper's shape:
// precision improves as δ drops from 1 to ≈0.4, then degrades when decay
// de-validates early history entirely.
func Figure10(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	cfg, rc := o.recConfig()
	rd, err := dataset.GenerateRec(cfg, rc)
	if err != nil {
		return nil, err
	}
	model := rd.TrainedModel(o.Seed)
	variants := []struct {
		label string
		kinds []media.Kind
	}{
		{"Text", []media.Kind{media.Text}},
		{"User", []media.Kind{media.User}},
		{"FIG", nil},
	}
	cols := make([]string, len(figure10Deltas))
	for i, dlt := range figure10Deltas {
		cols[i] = fmt.Sprintf("δ=%.1f", dlt)
	}
	t := &Table{
		Title:   "Figure 10: Recommendation Precision@10 vs decay parameter δ",
		Columns: cols,
		Note: fmt.Sprintf("|D|=%d, %d users with interest drift, P@10 against held-out favourites",
			rd.Corpus.Len(), len(rd.Profiles)),
	}
	for _, variant := range variants {
		vals := make([]float64, len(figure10Deltas))
		for i, dlt := range figure10Deltas {
			params := mrf.DefaultParams()
			params.Delta = dlt
			rec, err := recommend.New(model, recommend.Config{
				Temporal:  true,
				Params:    params,
				BuildOpts: fig.Options{Kinds: variant.kinds},
			})
			if err != nil {
				return nil, err
			}
			p := eval.RecommendationPrecision(eval.FIGRecSystem{Rec: rec, Label: variant.label}, rd, []int{10})
			vals[i] = p[10]
		}
		t.Rows = append(t.Rows, Row{Label: variant.label, Values: vals})
	}
	return t, nil
}

// Figure11 reproduces "Performance with Varied N": recommendation
// Precision@N of FIG-T and FIG against the RB, TP and LSA baselines, all
// scoring the newly incoming candidate set against the user profile.
func Figure11(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	cfg, rc := o.recConfig()
	rd, err := dataset.GenerateRec(cfg, rc)
	if err != nil {
		return nil, err
	}
	model := rd.TrainedModel(o.Seed)

	figT, err := recommend.New(model, recommend.Config{Temporal: true})
	if err != nil {
		return nil, err
	}
	figPlain, err := recommend.New(model, recommend.Config{Temporal: false})
	if err != nil {
		return nil, err
	}
	lsa, err := baselines.TrainLSA(rd.Corpus, baselines.LSAConfig{Rank: 24, Iters: 10, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	// RankBoost trains on retrieval-style queries over the history months.
	rng := rand.New(rand.NewSource(o.Seed + 21))
	trainQ := rd.SampleQueries(o.TrainQueries, rng)
	rbCfg := baselines.DefaultRBConfig()
	rbCfg.Seed = o.Seed
	rb, err := baselines.TrainRB(rd.Corpus, trainQ, dataset.Relevant, rbCfg)
	if err != nil {
		return nil, err
	}
	systems := []eval.RecSystem{
		eval.FIGRecSystem{Rec: figT},
		eval.FIGRecSystem{Rec: figPlain},
		eval.BaselineRecSystem{Scorer: rb, Corpus: rd.Corpus},
		eval.BaselineRecSystem{Scorer: baselines.NewTP(rd.Corpus), Corpus: rd.Corpus},
		eval.BaselineRecSystem{Scorer: lsa, Corpus: rd.Corpus},
	}
	t := &Table{
		Title:   "Figure 11: Recommendation Precision@N, FIG-T/FIG vs baselines",
		Columns: nColumns(recommendNs),
		Note: fmt.Sprintf("|D|=%d, %d users, candidates = %d newly incoming objects",
			rd.Corpus.Len(), len(rd.Profiles), len(rd.Candidates)),
	}
	for _, sys := range systems {
		p := eval.RecommendationPrecision(sys, rd, recommendNs)
		t.Rows = append(t.Rows, Row{Label: sys.Name(), Values: valuesFor(p, recommendNs)})
	}
	return t, nil
}
