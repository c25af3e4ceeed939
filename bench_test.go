package figfusion

// The benchmark harness regenerates every figure of the paper's evaluation
// (one benchmark per figure) and adds ablation benches for the design
// choices called out in DESIGN.md. Figure benches report wall-clock per
// full experiment at a reduced scale; the ablation benches report both
// time and, via ReportMetric, the retrieval quality each variant achieves,
// so accuracy/cost trade-offs are visible in one run:
//
//	go test -bench=. -benchmem
//
// cmd/figbench runs the same drivers at configurable scale for the
// EXPERIMENTS.md numbers.

import (
	"math/rand"
	"sync"
	"testing"

	"figfusion/internal/dataset"
	"figfusion/internal/eval"
	"figfusion/internal/experiments"
	"figfusion/internal/fig"
	"figfusion/internal/mrf"
	"figfusion/internal/retrieval"
	"figfusion/internal/topk"
)

// benchOptions keep the per-figure benches to a few seconds each.
func benchOptions() experiments.Options {
	return experiments.Options{
		Seed:         1,
		Scale:        400,
		Queries:      8,
		TrainQueries: 8,
		RecScale:     500,
		RecUsers:     8,
	}
}

func benchFigure(b *testing.B, run func(experiments.Options) (*experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 regenerates the feature-combination study (Figure 5).
func BenchmarkFigure5(b *testing.B) { benchFigure(b, experiments.Figure5) }

// BenchmarkFigure6 regenerates the qualitative query example (Figure 6).
func BenchmarkFigure6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates the retrieval baseline comparison (Figure 7).
func BenchmarkFigure7(b *testing.B) { benchFigure(b, experiments.Figure7) }

// BenchmarkFigure8 regenerates the precision-vs-size study (Figure 8).
func BenchmarkFigure8(b *testing.B) { benchFigure(b, experiments.Figure8) }

// BenchmarkFigure9 regenerates the time-per-query study (Figure 9).
func BenchmarkFigure9(b *testing.B) { benchFigure(b, experiments.Figure9) }

// BenchmarkFigure10 regenerates the decay-parameter sweep (Figure 10).
func BenchmarkFigure10(b *testing.B) { benchFigure(b, experiments.Figure10) }

// BenchmarkFigure11 regenerates the recommendation comparison (Figure 11).
func BenchmarkFigure11(b *testing.B) { benchFigure(b, experiments.Figure11) }

// ---- Ablation fixtures ----------------------------------------------------

var (
	ablOnce    sync.Once
	ablData    *dataset.Dataset
	ablQueries []ObjectID
)

func ablationFixture(b *testing.B) (*dataset.Dataset, []ObjectID) {
	b.Helper()
	ablOnce.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.NumObjects = 500
		cfg.NumTopics = 12
		var err error
		ablData, err = dataset.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ablQueries = ablData.SampleQueries(8, rand.New(rand.NewSource(3)))
	})
	return ablData, ablQueries
}

// measureSearch times one search function over the fixture queries and
// reports its mean Precision@10 as a custom metric.
func measureSearch(b *testing.B, d *dataset.Dataset, queries []ObjectID,
	search func(q *Object, k int, exclude ObjectID) []topk.Item) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var precision float64
	for i := 0; i < b.N; i++ {
		precision = 0
		for _, qid := range queries {
			q := d.Corpus.Object(qid)
			results := search(q, 10, qid)
			rel := 0
			for _, it := range results {
				if dataset.Relevant(q, d.Corpus.Object(it.ID)) {
					rel++
				}
			}
			if len(results) > 0 {
				precision += float64(rel) / float64(len(results))
			}
		}
	}
	b.ReportMetric(precision/float64(len(queries)), "P@10")
}

// BenchmarkAblationCliqueSize sweeps the clique feature cap — the
// accuracy/cost trade-off of Eq. 4's clique sum.
func BenchmarkAblationCliqueSize(b *testing.B) {
	d, queries := ablationFixture(b)
	for _, maxFeats := range []int{1, 2, 3, 4} {
		b.Run(sizeName(maxFeats), func(b *testing.B) {
			engine, err := retrieval.NewEngine(d.Model(), retrieval.Config{
				EnumOpts: fig.EnumerateOptions{MaxFeatures: maxFeats},
			})
			if err != nil {
				b.Fatal(err)
			}
			measureSearch(b, d, queries, engine.Search)
		})
	}
}

func sizeName(n int) string { return "maxFeatures=" + string(rune('0'+n)) }

// BenchmarkAblationAlpha sweeps the Eq. 7 smoothing trade-off; α = 0
// disables the correlation-smoothing term entirely.
func BenchmarkAblationAlpha(b *testing.B) {
	d, queries := ablationFixture(b)
	for _, tc := range []struct {
		name  string
		alpha float64
	}{{"alpha=0", 0}, {"alpha=0.25", 0.25}, {"alpha=0.5", 0.5}} {
		b.Run(tc.name, func(b *testing.B) {
			params := mrf.DefaultParams()
			params.Alpha = tc.alpha
			engine, err := retrieval.NewEngine(d.Model(), retrieval.Config{Params: params})
			if err != nil {
				b.Fatal(err)
			}
			measureSearch(b, d, queries, engine.Search)
		})
	}
}

// BenchmarkAblationCorS toggles the Eq. 9 clique-importance weighting.
func BenchmarkAblationCorS(b *testing.B) {
	d, queries := ablationFixture(b)
	for _, tc := range []struct {
		name string
		on   bool
	}{{"CorS=on", true}, {"CorS=off", false}} {
		b.Run(tc.name, func(b *testing.B) {
			params := mrf.DefaultParams()
			params.UseCorS = tc.on
			engine, err := retrieval.NewEngine(d.Model(), retrieval.Config{Params: params})
			if err != nil {
				b.Fatal(err)
			}
			measureSearch(b, d, queries, engine.Search)
		})
	}
}

// BenchmarkAblationSearchPath compares the four retrieval paths: the
// sequential scan, the index-pruned full scoring (default), the literal
// Algorithm 1 TA merge, and its exhaustive-merge variant.
func BenchmarkAblationSearchPath(b *testing.B) {
	d, queries := ablationFixture(b)
	engine, err := retrieval.NewEngine(d.Model(), retrieval.Config{})
	if err != nil {
		b.Fatal(err)
	}
	paths := []struct {
		name   string
		search func(q *Object, k int, exclude ObjectID) []topk.Item
	}{
		{"scan", engine.SearchScan},
		{"index+fullscore", engine.Search},
		{"index+TA", engine.SearchTA},
		{"index+fullmerge", engine.SearchMergeFull},
	}
	for _, p := range paths {
		b.Run(p.name, func(b *testing.B) {
			measureSearch(b, d, queries, p.search)
		})
	}
}

// BenchmarkAblationThreshold sweeps the trained correlation threshold
// quantile — denser FIGs cost more but may capture more interactions.
func BenchmarkAblationThreshold(b *testing.B) {
	d, queries := ablationFixture(b)
	for _, tc := range []struct {
		name     string
		quantile float64
	}{{"edges=sparse(q0.2)", 0.2}, {"edges=default(q0.35)", 0.35}, {"edges=dense(q0.6)", 0.6}} {
		b.Run(tc.name, func(b *testing.B) {
			m := d.Model()
			m.TrainThresholds(150, tc.quantile, rand.New(rand.NewSource(5)))
			engine, err := retrieval.NewEngine(m, retrieval.Config{})
			if err != nil {
				b.Fatal(err)
			}
			measureSearch(b, d, queries, engine.Search)
		})
	}
}

// BenchmarkAblationRecommendDecay sweeps δ on a small recommendation
// workload, reporting recommendation P@10.
func BenchmarkAblationRecommendDecay(b *testing.B) {
	cfg := dataset.DefaultConfig()
	cfg.NumObjects = 500
	cfg.NumTopics = 10
	rc := dataset.DefaultRecConfig()
	rc.NumUsers = 8
	rc.MinHistory = 3
	rd, err := dataset.GenerateRec(cfg, rc)
	if err != nil {
		b.Fatal(err)
	}
	model := rd.Model()
	for _, tc := range []struct {
		name  string
		delta float64
	}{{"delta=1.0", 1.0}, {"delta=0.4", 0.4}, {"delta=0.1", 0.1}} {
		b.Run(tc.name, func(b *testing.B) {
			params := mrf.DefaultParams()
			params.Delta = tc.delta
			rec, err := NewRecommender(model, RecommenderConfig{Temporal: true, Params: params})
			if err != nil {
				b.Fatal(err)
			}
			sys := eval.FIGRecSystem{Rec: rec}
			b.ReportAllocs()
			b.ResetTimer()
			var p map[int]float64
			for i := 0; i < b.N; i++ {
				p = eval.RecommendationPrecision(sys, rd, []int{10})
			}
			b.ReportMetric(p[10], "P@10")
		})
	}
}

// BenchmarkAblationPruning compares the eager and the block-max lazy
// Threshold Algorithm merge on the Algorithm 1 TA path. Both must report
// identical P@10 (pruning is result-preserving).
func BenchmarkAblationPruning(b *testing.B) {
	d, queries := ablationFixture(b)
	for _, mode := range []retrieval.PruningMode{retrieval.PruneOff, retrieval.PruneBlockMax} {
		engine, err := retrieval.NewEngine(d.Model(), retrieval.Config{Pruning: mode})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("searchTA/"+mode.String(), func(b *testing.B) {
			measureSearch(b, d, queries, engine.SearchTA)
		})
	}
}
