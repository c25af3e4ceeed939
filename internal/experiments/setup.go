package experiments

import (
	"fmt"
	"math/rand"

	"figfusion/internal/baselines"
	"figfusion/internal/dataset"
	"figfusion/internal/eval"
	"figfusion/internal/media"
	"figfusion/internal/mrf"
	"figfusion/internal/retrieval"
)

// Options scale the experiments. The paper's corpora (236,600 and 207,909
// objects) are reachable by raising Scale/RecScale; the defaults keep a
// full figbench run to a few minutes on a laptop while preserving the
// structural ratios (topic counts, feature densities, query counts).
type Options struct {
	// Seed drives every random choice.
	Seed int64
	// Scale is the retrieval corpus size |D_ret| (paper: 236,600).
	Scale int
	// Queries is the number of evaluation queries (paper: 20).
	Queries int
	// TrainQueries is the number of queries used to fit RankBoost and the
	// MRF λ-training, disjoint from the evaluation queries.
	TrainQueries int
	// RecScale is the recommendation corpus size |D_rec| (paper: 207,909).
	RecScale int
	// RecUsers is the number of evaluation users (paper: 279).
	RecUsers int
}

// DefaultOptions returns the laptop-scale setup.
func DefaultOptions() Options {
	return Options{
		Seed:         1,
		Scale:        1200,
		Queries:      20,
		TrainQueries: 20,
		RecScale:     1500,
		RecUsers:     30,
	}
}

func (o Options) validate() error {
	if o.Scale < 100 || o.RecScale < 100 {
		return fmt.Errorf("experiments: Scale/RecScale too small (%d/%d), need ≥ 100", o.Scale, o.RecScale)
	}
	if o.Queries < 1 || o.TrainQueries < 1 || o.RecUsers < 1 {
		return fmt.Errorf("experiments: Queries/TrainQueries/RecUsers must be positive")
	}
	return nil
}

// retrievalConfig derives the corpus generator configuration for retrieval
// experiments from the scale.
func (o Options) retrievalConfig() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.NumObjects = o.Scale
	// Topic diversity grows with corpus size, as on a real media site —
	// this is what makes a fixed-rank latent space increasingly lossy
	// (the paper's core argument against global early fusion).
	cfg.NumTopics = dataset.TopicsForScale(o.Scale)
	return cfg
}

func (o Options) recConfig() (dataset.Config, dataset.RecConfig) {
	cfg := dataset.DefaultConfig()
	cfg.Seed = o.Seed + 1000
	cfg.NumObjects = o.RecScale
	cfg.NumTopics = dataset.TopicsForScale(o.RecScale)
	rc := dataset.DefaultRecConfig()
	rc.NumUsers = o.RecUsers
	return cfg, rc
}

// splitQueries samples disjoint train and eval query sets.
func splitQueries(d *dataset.Dataset, o Options) (train, evalQ []media.ObjectID) {
	rng := rand.New(rand.NewSource(o.Seed + 7))
	all := d.SampleQueries(o.TrainQueries+o.Queries, rng)
	return all[:o.TrainQueries], all[o.TrainQueries:]
}

// buildBaselineSystems trains LSA and RankBoost on a dataset and returns
// the three baseline systems in paper order (RB, TP, LSA).
func buildBaselineSystems(d *dataset.Dataset, trainQ []media.ObjectID, seed int64) ([]eval.System, error) {
	lsa, err := baselines.TrainLSA(d.Corpus, baselines.LSAConfig{Rank: 24, Iters: 10, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("train LSA: %w", err)
	}
	rbCfg := baselines.DefaultRBConfig()
	rbCfg.Seed = seed
	rb, err := baselines.TrainRB(d.Corpus, trainQ, dataset.Relevant, rbCfg)
	if err != nil {
		return nil, fmt.Errorf("train RB: %w", err)
	}
	return []eval.System{
		eval.BaselineSystem{Scorer: rb, Corpus: d.Corpus},
		eval.BaselineSystem{Scorer: baselines.NewTP(d.Corpus), Corpus: d.Corpus},
		eval.BaselineSystem{Scorer: lsa, Corpus: d.Corpus},
	}, nil
}

// buildFIGSystem constructs the FIG engine with trained correlation
// thresholds over the dataset. When training queries are supplied, the MRF
// λ/α parameters are trained by coordinate ascent on mean Precision@10 over
// them — the rank-metric training of [16] the paper adopts (Section 5.2).
func buildFIGSystem(d *dataset.Dataset, cfg retrieval.Config, seed int64, trainQ []media.ObjectID) (eval.FIGSystem, error) {
	m := d.TrainedModel(seed)
	engine, err := retrieval.NewEngine(m, cfg)
	if err != nil {
		return eval.FIGSystem{}, err
	}
	if len(trainQ) > 0 {
		base := engine.Scorer.Params
		objective := func(p mrf.Params) float64 {
			cand, err := engine.WithParams(p)
			if err != nil {
				return -1
			}
			prec := eval.RetrievalPrecisionWorkers(eval.FIGSystem{Engine: cand}, d.Corpus, trainQ,
				[]int{10}, dataset.Relevant, cfg.Workers)
			return prec[10]
		}
		best, _ := mrf.Train(base, objective, 2)
		engine, err = engine.WithParams(best)
		if err != nil {
			return eval.FIGSystem{}, err
		}
	}
	return eval.FIGSystem{Engine: engine}, nil
}
