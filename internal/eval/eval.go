// Package eval implements the evaluation protocol of Section 5.1.4:
// Precision@N over sampled query objects for retrieval (with the planted
// primary topic standing in for the paper's three human evaluators) and
// Precision@N against held-out future favourites for recommendation, plus
// per-query wall-clock timing for the efficiency study (Figure 9).
package eval

import (
	"time"

	"figfusion/internal/baselines"
	"figfusion/internal/dataset"
	"figfusion/internal/media"
	"figfusion/internal/par"
	"figfusion/internal/recommend"
	"figfusion/internal/retrieval"
	"figfusion/internal/topk"
)

// System is anything that can answer top-k similarity queries over a
// corpus. Both the FIG engine and the baselines adapt to it.
type System interface {
	Name() string
	Search(q *media.Object, k int, exclude media.ObjectID) []topk.Item
	SearchAmong(q *media.Object, candidates []media.ObjectID, k int) []topk.Item
}

// FIGSystem adapts retrieval.Engine to System.
type FIGSystem struct {
	Engine *retrieval.Engine
	Label  string
}

// Name implements System.
func (f FIGSystem) Name() string {
	if f.Label != "" {
		return f.Label
	}
	return "FIG"
}

// Search implements System.
func (f FIGSystem) Search(q *media.Object, k int, exclude media.ObjectID) []topk.Item {
	return f.Engine.Search(q, k, exclude)
}

// SearchAmong implements System by scoring only the candidates with the
// engine's MRF model.
func (f FIGSystem) SearchAmong(q *media.Object, candidates []media.ObjectID, k int) []topk.Item {
	return f.Engine.SearchAmong(q, candidates, k)
}

// BaselineSystem adapts a baselines.Scorer to System.
type BaselineSystem struct {
	Scorer baselines.Scorer
	Corpus *media.Corpus
}

// Name implements System.
func (b BaselineSystem) Name() string { return b.Scorer.Name() }

// Search implements System.
func (b BaselineSystem) Search(q *media.Object, k int, exclude media.ObjectID) []topk.Item {
	return baselines.Search(b.Scorer, b.Corpus, q, k, exclude)
}

// SearchAmong implements System.
func (b BaselineSystem) SearchAmong(q *media.Object, candidates []media.ObjectID, k int) []topk.Item {
	return baselines.SearchAmong(b.Scorer, b.Corpus, q, candidates, k)
}

// Precision returns the fraction of results the relevance oracle accepts.
// Empty result lists score 0.
func Precision(q *media.Object, results []topk.Item, corpus *media.Corpus,
	relevant func(q, o *media.Object) bool) float64 {
	if len(results) == 0 {
		return 0
	}
	rel := 0
	for _, it := range results {
		if relevant(q, corpus.Object(it.ID)) {
			rel++
		}
	}
	return float64(rel) / float64(len(results))
}

// RetrievalPrecision runs every query through the system once at the
// largest N and reports mean Precision@N for each requested N. Queries are
// evaluated concurrently across every CPU; see RetrievalPrecisionWorkers to
// pin the fan-out.
func RetrievalPrecision(sys System, corpus *media.Corpus, queries []media.ObjectID,
	ns []int, relevant func(q, o *media.Object) bool) map[int]float64 {
	return RetrievalPrecisionWorkers(sys, corpus, queries, ns, relevant, 0)
}

// RetrievalPrecisionWorkers is RetrievalPrecision with a bounded fan-out
// (0 = NumCPU). The result is identical at any worker count: each worker
// evaluates whole queries — the System must be safe for concurrent
// searches, as retrieval.Engine and the baselines are — into fixed
// per-query slots, and the per-query precisions are summed serially in
// query order, so the floating-point reduction never depends on the
// fan-out. This is the λ-training objective's hot loop: the §3.4
// coordinate ascent calls it once per candidate parameter point.
func RetrievalPrecisionWorkers(sys System, corpus *media.Corpus, queries []media.ObjectID,
	ns []int, relevant func(q, o *media.Object) bool, workers int) map[int]float64 {
	maxN := 0
	for _, n := range ns {
		if n > maxN {
			maxN = n
		}
	}
	precs := make([][]float64, len(queries))
	par.Range(len(queries), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			qid := queries[i]
			q := corpus.Object(qid)
			results := sys.Search(q, maxN, qid)
			row := make([]float64, len(ns))
			for j, n := range ns {
				top := results
				if len(top) > n {
					top = top[:n]
				}
				row[j] = Precision(q, top, corpus, relevant)
			}
			precs[i] = row
		}
	})
	sums := make(map[int]float64, len(ns))
	for _, row := range precs {
		for j, n := range ns {
			sums[n] += row[j]
		}
	}
	out := make(map[int]float64, len(ns))
	for _, n := range ns {
		out[n] = sums[n] / float64(len(queries))
	}
	return out
}

// RetrievalTime reports the mean wall-clock time per query at depth k.
func RetrievalTime(sys System, corpus *media.Corpus, queries []media.ObjectID, k int) time.Duration {
	start := time.Now()
	for _, qid := range queries {
		sys.Search(corpus.Object(qid), k, qid)
	}
	return time.Since(start) / time.Duration(len(queries))
}

// RecSystem is anything that can recommend candidates for a user history.
type RecSystem interface {
	Name() string
	Recommend(history []*media.Object, candidates []media.ObjectID, k, now int) []topk.Item
}

// FIGRecSystem adapts recommend.Recommender to RecSystem.
type FIGRecSystem struct {
	Rec   *recommend.Recommender
	Label string
}

// Name implements RecSystem.
func (f FIGRecSystem) Name() string {
	if f.Label != "" {
		return f.Label
	}
	if f.Rec.Temporal() {
		return "FIG-T"
	}
	return "FIG"
}

// Recommend implements RecSystem.
func (f FIGRecSystem) Recommend(history []*media.Object, candidates []media.ObjectID, k, now int) []topk.Item {
	return f.Rec.Recommend(history, candidates, k, now)
}

// BaselineRecSystem adapts a baseline scorer to RecSystem via the naive
// "big object" profile of Section 4 (the baselines have no temporal model,
// so the union is their only option — "the retrieval algorithms of these
// approaches can be used only with minor modification").
type BaselineRecSystem struct {
	Scorer baselines.Scorer
	Corpus *media.Corpus
}

// Name implements RecSystem.
func (b BaselineRecSystem) Name() string { return b.Scorer.Name() }

// Recommend implements RecSystem.
func (b BaselineRecSystem) Recommend(history []*media.Object, candidates []media.ObjectID, k, now int) []topk.Item {
	profile := media.UnionObject(media.ObjectID(-1), history)
	return baselines.SearchAmong(b.Scorer, b.Corpus, profile, candidates, k)
}

// RecommendationPrecision reports mean Precision@N over the dataset's user
// profiles: the fraction of the top-N recommendations that the user
// actually favourited in the held-out months.
func RecommendationPrecision(sys RecSystem, rd *dataset.RecDataset, ns []int) map[int]float64 {
	maxN := 0
	for _, n := range ns {
		if n > maxN {
			maxN = n
		}
	}
	sums := make(map[int]float64, len(ns))
	for _, p := range rd.Profiles {
		history := rd.HistoryObjects(p)
		results := sys.Recommend(history, rd.Candidates, maxN, rd.Now)
		for _, n := range ns {
			top := results
			if len(top) > n {
				top = top[:n]
			}
			if len(top) == 0 {
				continue
			}
			hits := 0
			for _, it := range top {
				if p.Future[it.ID] {
					hits++
				}
			}
			sums[n] += float64(hits) / float64(len(top))
		}
	}
	out := make(map[int]float64, len(ns))
	for _, n := range ns {
		out[n] = sums[n] / float64(len(rd.Profiles))
	}
	return out
}
