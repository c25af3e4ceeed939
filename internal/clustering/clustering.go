// Package clustering implements the clustering application from the paper's
// introduction ("retrieval, recommendation, classification, clustering, and
// so on"): k-medoids over the FIG/MRF similarity. Medoids are corpus
// objects, so the asymmetric similarity score s(medoid → object) is
// directly the clique-potential sum the retrieval engine computes, and no
// vector-space embedding is needed — exactly the point of similarity-based
// clustering over fused features.
package clustering

import (
	"fmt"
	"math/rand"

	"figfusion/internal/media"
	"figfusion/internal/mrf"
	"figfusion/internal/retrieval"
)

// Result is a clustering outcome.
type Result struct {
	// Medoids holds the representative object of each cluster.
	Medoids []media.ObjectID
	// Assign maps every clustered object index (position in the input
	// slice) to its cluster.
	Assign []int
	// Objects echoes the clustered object IDs, parallel to Assign.
	Objects []media.ObjectID
}

// Config controls k-medoids.
type Config struct {
	// K is the number of clusters.
	K int
	// MaxIter bounds the assignment/update sweeps.
	MaxIter int
	// UpdateSample bounds the member sample used when re-electing a
	// cluster's medoid (the full quadratic update is needless at our
	// similarity cost); values < 1 default to 16.
	UpdateSample int
	// Seed drives medoid seeding and sampling.
	Seed int64
}

// KMedoids clusters the given objects. The engine supplies the similarity;
// its index is not required (scoring is direct).
func KMedoids(engine *retrieval.Engine, objects []media.ObjectID, cfg Config) (*Result, error) {
	if engine == nil {
		return nil, fmt.Errorf("cluster: nil engine")
	}
	if cfg.K < 1 || cfg.K > len(objects) {
		return nil, fmt.Errorf("cluster: k = %d with %d objects", cfg.K, len(objects))
	}
	if cfg.MaxIter < 1 {
		cfg.MaxIter = 10
	}
	if cfg.UpdateSample < 1 {
		cfg.UpdateSample = 16
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	corpus := engine.Model.Stats.Corpus()

	// One compiled clique set per prospective medoid, cached.
	compiled := make(map[media.ObjectID]*mrf.CliqueSet)
	similarity := func(medoid, obj media.ObjectID) float64 {
		cs, ok := compiled[medoid]
		if !ok {
			cs = engine.Scorer.Compile(engine.QueryCliques(corpus.Object(medoid)), nil)
			compiled[medoid] = cs
		}
		return cs.Score(corpus.Object(obj))
	}

	// Seed medoids with distinct random objects.
	perm := rng.Perm(len(objects))
	medoids := make([]media.ObjectID, cfg.K)
	for i := 0; i < cfg.K; i++ {
		medoids[i] = objects[perm[i]]
	}
	assign := make([]int, len(objects))
	for iter := 0; iter < cfg.MaxIter; iter++ {
		// Assignment step.
		changed := false
		for i, obj := range objects {
			best, bestSim := 0, similarity(medoids[0], obj)
			for c := 1; c < cfg.K; c++ {
				if s := similarity(medoids[c], obj); s > bestSim {
					best, bestSim = c, s
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Update step: re-elect each cluster's medoid as the member with
		// the highest total similarity to a sample of its members.
		for c := 0; c < cfg.K; c++ {
			var members []media.ObjectID
			for i, obj := range objects {
				if assign[i] == c {
					members = append(members, obj)
				}
			}
			if len(members) == 0 {
				// Empty cluster: re-seed with a random object.
				medoids[c] = objects[rng.Intn(len(objects))]
				continue
			}
			sample := members
			if len(sample) > cfg.UpdateSample {
				idx := rng.Perm(len(members))[:cfg.UpdateSample]
				sample = make([]media.ObjectID, len(idx))
				for j, i := range idx {
					sample[j] = members[i]
				}
			}
			bestMedoid, bestTotal := medoids[c], -1.0
			candidates := members
			if len(candidates) > cfg.UpdateSample {
				idx := rng.Perm(len(members))[:cfg.UpdateSample]
				candidates = make([]media.ObjectID, len(idx))
				for j, i := range idx {
					candidates[j] = members[i]
				}
			}
			for _, cand := range candidates {
				var total float64
				for _, m := range sample {
					total += similarity(cand, m)
				}
				if total > bestTotal {
					bestMedoid, bestTotal = cand, total
				}
			}
			medoids[c] = bestMedoid
		}
	}
	return &Result{
		Medoids: medoids,
		Assign:  assign,
		Objects: append([]media.ObjectID(nil), objects...),
	}, nil
}

// Purity evaluates a clustering against the planted primary topics: the
// fraction of objects belonging to their cluster's majority topic.
func (r *Result) Purity(corpus *media.Corpus) float64 {
	if len(r.Objects) == 0 {
		return 0
	}
	majority := make(map[int]map[int]int) // cluster -> topic -> count
	for i, obj := range r.Objects {
		c := r.Assign[i]
		if majority[c] == nil {
			majority[c] = make(map[int]int)
		}
		majority[c][corpus.Object(obj).PrimaryTopic]++
	}
	total := 0
	for _, topics := range majority {
		best := 0
		for _, n := range topics {
			if n > best {
				best = n
			}
		}
		total += best
	}
	return float64(total) / float64(len(r.Objects))
}

// Sizes returns the member count of each cluster.
func (r *Result) Sizes(k int) []int {
	sizes := make([]int, k)
	for _, c := range r.Assign {
		if c >= 0 && c < k {
			sizes[c]++
		}
	}
	return sizes
}
