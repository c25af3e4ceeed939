// Package mrf implements the probabilistic similarity model of Sections
// 3.3–3.4 and its temporal extension of Section 4. Treating the Feature
// Interaction Graph G′ (the query's FIG with its virtual root replaced by a
// candidate object O_i) as a Markov Random Field, the similarity score is
//
//	P(O_i, O_q) ∝ Σ_{c ∈ C(G′)} ϕ(c)                      (Eq. 6)
//
// with the smoothed potential
//
//	ϕ(c)  = λ_c · [ (1−α)·freq(n_1..n_k | O_i)/|O_i|
//	              + α·Σ_{n_i∈c} Σ_{n_j∈O_i−c} Cor(n_i,n_j)
//	                  / ((|c|−1)·|O_i−c|) ]                (Eq. 7)
//
// optionally weighted by the clique's correlation strength
//
//	ϕ′(c) = CorS(n_1..n_k) · ϕ(c)                          (Eq. 9)
//
// and, for recommendation, decayed by the clique's age
//
//	ϕ_rec(c, t_i) = λ_c · δ^(t_c−t_i) · CorS(·) · P(·|O_r) (Eq. 10)
//
// Following Section 3.4, λ_c is constrained to depend only on the clique
// size |c|, which keeps the MRF hypothesis space trainable; CorS carries the
// per-clique importance. freq(n_1..n_k|O_i) — the appearance frequency of
// the whole feature set in O_i — is the number of complete co-occurrences,
// i.e. the minimum per-feature count (for a single feature this is its
// count). The paper leaves the set-frequency estimator unspecified; the
// minimum is the standard conjunctive choice.
package mrf

import (
	"fmt"
	"math"

	"figfusion/internal/corr"
	"figfusion/internal/fig"
	"figfusion/internal/floatcache"
	"figfusion/internal/media"
	"figfusion/internal/numeric"
)

// MaxCliqueFeatures is the largest clique feature count the default λ vector
// covers.
const MaxCliqueFeatures = 4

// Params are the trainable parameters Λ of the MRF plus the model switches.
type Params struct {
	// Lambda[k-1] is λ_c for cliques with k feature nodes (clique size
	// k+1 including the virtual root). Cliques larger than the vector get
	// weight 0.
	Lambda []float64
	// Alpha is the smoothing trade-off of Eq. 7: 0 disables the
	// correlation-smoothing term, 1 uses only it.
	Alpha float64
	// UseCorS enables the Eq. 9 clique-importance weighting.
	UseCorS bool
	// Delta is the temporal decay δ < 1 of Eq. 10; only the recommender's
	// profile multipliers use it. Delta 1 disables decay.
	Delta float64
}

// DefaultParams mirror the relative clique-size weights that term-dependency
// MRF retrieval settles on (heavily favouring small cliques), with moderate
// smoothing, CorS weighting on, and the paper's best decay δ = 0.4.
func DefaultParams() Params {
	return Params{
		Lambda:  []float64{0.70, 0.20, 0.08, 0.02},
		Alpha:   0.25,
		UseCorS: true,
		Delta:   0.4,
	}
}

// Validate checks parameter ranges.
func (p Params) Validate() error {
	if len(p.Lambda) == 0 {
		return fmt.Errorf("mrf: empty lambda vector")
	}
	for i, l := range p.Lambda {
		if l < 0 || math.IsNaN(l) {
			return fmt.Errorf("mrf: lambda[%d] = %v must be non-negative", i, l)
		}
	}
	if p.Alpha < 0 || p.Alpha > 1 {
		return fmt.Errorf("mrf: alpha = %v out of [0,1]", p.Alpha)
	}
	if p.Delta <= 0 || p.Delta > 1 {
		return fmt.Errorf("mrf: delta = %v out of (0,1]", p.Delta)
	}
	return nil
}

// LambdaFor returns λ_c for a clique with nFeats feature nodes.
func (p Params) LambdaFor(nFeats int) float64 {
	if nFeats < 1 || nFeats > len(p.Lambda) {
		return 0
	}
	return p.Lambda[nFeats-1]
}

// Scorer evaluates clique potentials and object similarity scores. It
// caches CorS per clique (CorS depends only on corpus statistics, not on the
// candidate object) and per-(feature, object) smoothing sums. Candidate
// objects passed to Potential/Score must come from the model's corpus (the
// smoothing cache is keyed by their stable ObjectIDs); query objects may be
// external. Safe for concurrent use: both caches are sharded (per-shard
// RWMutex, keys striped by hash) so concurrent queries do not serialise on
// a global lock, and every entry is stamped with the model's statistics
// generation, so the caches self-invalidate when the corpus grows — even
// in scorers that never hear about the insert (WithParams clones).
type Scorer struct {
	Model  *corr.Model
	Params Params

	// cors caches the Eq. 9 clique weight by canonical clique key.
	cors *floatcache.Cache[string]

	// smooth caches (FID, ObjectID) → Σ_{f_j∈O} Cor(f, f_j). Cliques
	// share features heavily (every clique of a FIG reuses the same
	// nodes), so caching this sum turns the Eq. 7 smoothing term from
	// O(|c|·|O|) correlation evaluations per potential into O(|c|)
	// lookups.
	smooth *floatcache.Cache[uint64]
}

// NewScorer builds a scorer over the correlation model.
func NewScorer(m *corr.Model, p Params) (*Scorer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Scorer{
		Model:  m,
		Params: p,
		cors:   floatcache.New[string](floatcache.HashString),
		smooth: floatcache.New[uint64](floatcache.HashUint64),
	}, nil
}

// WithParams returns a scorer with different parameters sharing this
// scorer's model and its warm CorS and smoothing caches. Both cached
// quantities are parameter-independent — CorS is a pure function of the
// corpus statistics, the smoothing sums a pure function of the correlation
// tables; λ, α and the switches only enter Potential outside the caches —
// and both caches are concurrency-safe and generation-stamped, so clones
// sharing them stay correct across corpus growth. This is what makes the
// λ/α coordinate ascent cheap: every candidate scorer reuses the weights
// and sums already computed instead of refilling cold caches per sweep
// point.
func (s *Scorer) WithParams(p Params) (*Scorer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Scorer{Model: s.Model, Params: p, cors: s.cors, smooth: s.smooth}, nil
}

// CorS returns the cached correlation-strength weight of a clique for the
// Eq. 9 importance weighting ("the larger the CorS, the more important the
// clique"). The weight itself — Eq. 8 normalized by |D| for multi-feature
// cliques, the standardized dispersion sd(n)/mean(n) for singletons,
// clamped non-negative — is defined once in corr.Stats.CliqueWeight; the
// inverted index stores the same quantity per entry, so indexed search
// paths serve it without consulting this cache.
func (s *Scorer) CorS(c fig.Clique) float64 {
	key := c.Key()
	gen := s.Model.Generation()
	if v, ok := s.cors.Get(gen, key); ok {
		return v
	}
	v := s.Model.Stats.CliqueWeight(c.Feats)
	// Discard on a generation change so a value computed from newer
	// statistics is never stamped with the older generation (see the
	// floatcache package comment).
	if s.Model.Generation() == gen {
		s.cors.Put(gen, key, v)
	}
	return v
}

// setFreq returns freq(n_1..n_k | O): the number of complete co-occurrences
// of the clique's feature set in O (minimum per-feature count).
func setFreq(feats []media.FID, o *media.Object) float64 {
	minCount := math.MaxInt32
	for _, fid := range feats {
		c := o.Count(fid)
		if c < minCount {
			minCount = c
		}
		if minCount == 0 {
			return 0
		}
	}
	return float64(minCount)
}

// conditional computes P(n_1..n_k | O_i) of Eq. 7: the smoothed probability
// that the clique's features appear together in the object.
func (s *Scorer) conditional(feats []media.FID, o *media.Object) float64 {
	total := o.TotalCount()
	if total == 0 || len(feats) == 0 {
		return 0
	}
	p := (1 - s.Params.Alpha) * setFreq(feats, o) / float64(total)
	if s.Params.Alpha > 0 {
		p += s.Params.Alpha * s.smoothing(feats, o)
	}
	return p
}

// smoothing computes the second component of Eq. 7: the mean correlation
// between clique features and the object's remaining features,
// Σ_{n_i∈c} Σ_{n_j∈O−c} Cor(n_i, n_j) / ((|c|−1)·|O−c|), where |c|−1 is the
// number of feature nodes in the clique. The inner sum over the whole
// object is served from the per-(feature, object) cache and corrected by
// subtracting the clique features present in O.
func (s *Scorer) smoothing(feats []media.FID, o *media.Object) float64 {
	present := 0
	for _, f := range feats {
		if o.Has(f) {
			present++
		}
	}
	rest := o.Len() - present
	if rest == 0 {
		return 0
	}
	var sum float64
	for _, fi := range feats {
		total := s.featureObjectCor(fi, o)
		// Remove contributions of clique members that are in O.
		for _, fj := range feats {
			if o.Has(fj) {
				total -= s.Model.Cor(fi, fj)
			}
		}
		sum += total
	}
	return sum / (float64(len(feats)) * float64(rest))
}

// featureObjectCor returns Σ_{f_j ∈ O} Cor(f, f_j), cached per (f, O).
func (s *Scorer) featureObjectCor(f media.FID, o *media.Object) float64 {
	key := uint64(uint32(f))<<32 | uint64(uint32(o.ID))
	gen := s.Model.Generation()
	if v, ok := s.smooth.Get(gen, key); ok {
		return v
	}
	var v float64
	for _, fj := range o.Feats {
		v += s.Model.Cor(f, fj)
	}
	if s.Model.Generation() == gen {
		s.smooth.Put(gen, key, v)
	}
	return v
}

// PotentialParts returns the two candidate-dependent components of the
// Eq. 7 conditional for one clique feature set: the set-frequency ratio
// freq(n_1..n_k|O)/|O| and the smoothing mean. They are computed with the
// same arithmetic the scoring paths use, so per-block maxima taken over
// them upper-bound (up to reassociation rounding; see the index package's
// bound inflation) every conditional the clique can produce for those
// postings at any (α, λ, CorS) — which is what lets the inverted index
// store parameter-independent block summaries.
func (s *Scorer) PotentialParts(feats []media.FID, o *media.Object) (sf, sm float64) {
	total := o.TotalCount()
	if total == 0 || len(feats) == 0 {
		return 0, 0
	}
	return setFreq(feats, o) / float64(total), s.smoothing(feats, o)
}

// Potential computes ϕ′(c) for a candidate object: Eq. 7 scaled by λ_c and,
// when enabled, by the Eq. 9 CorS weight. Potential and Score are the
// readable, uncompiled form of the model — the reference the tests hold
// CliqueSet to; everything that ranks candidates compiles first.
func (s *Scorer) Potential(c fig.Clique, o *media.Object) float64 {
	lambda := s.Params.LambdaFor(len(c.Feats))
	if numeric.IsZero(lambda) {
		return 0
	}
	phi := lambda * s.conditional(c.Feats, o)
	if s.Params.UseCorS {
		phi *= s.CorS(c)
	}
	return phi
}

// Score computes the Eq. 6 similarity of a candidate object to a query
// represented by its clique set: the sum of clique potentials.
func (s *Scorer) Score(cliques []fig.Clique, o *media.Object) float64 {
	var sum float64
	for _, c := range cliques {
		sum += s.Potential(c, o)
	}
	return sum
}

// Reset drops the scorer's memoised CorS and smoothing values eagerly,
// releasing their memory. Correctness no longer depends on calling it:
// both caches are stamped with the model's statistics generation and
// self-invalidate when corr.Model.InvalidateCache advances it.
func (s *Scorer) Reset() {
	s.cors.Reset()
	s.smooth.Reset()
}

// CacheStats returns lifetime hit/miss counts for the CorS and smoothing
// caches — the observability hook the serving metrics expose. Misses are
// exact; hits are a sampled estimate (see floatcache.Cache.Stats).
func (s *Scorer) CacheStats() (corsHits, corsMisses, smoothHits, smoothMisses uint64) {
	corsHits, corsMisses = s.cors.Stats()
	smoothHits, smoothMisses = s.smooth.Stats()
	return
}
