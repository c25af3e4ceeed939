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

// Scorer evaluates clique potentials and object similarity scores: a
// correlation model plus the parameters Λ. It holds no state of its own —
// the parameter-independent quantities the potentials read (Eq. 9 clique
// weights, Eq. 7 smoothing sums) are memoised on the model, so every
// scorer over one model shares them and a parameter sweep never refills
// them. Candidate objects passed to Potential/Score must come from the
// model's corpus (the smoothing memo is keyed by their stable ObjectIDs);
// query objects may be external. Safe for concurrent use.
type Scorer struct {
	Model  *corr.Model
	Params Params
}

// NewScorer builds a scorer over the correlation model.
func NewScorer(m *corr.Model, p Params) (*Scorer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Scorer{Model: m, Params: p}, nil
}

// CorS returns the correlation-strength weight of a clique for the Eq. 9
// importance weighting ("the larger the CorS, the more important the
// clique"), defined in corr.Stats.CliqueWeight and memoised on the model.
func (s *Scorer) CorS(c fig.Clique) float64 { return s.Model.CliqueWeight(c.Key(), c.Feats) }

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
		p += s.Params.Alpha * smoothing(s.Model, feats, o)
	}
	return p
}

// smoothing computes the second component of Eq. 7: the mean correlation
// between clique features and the object's remaining features,
// Σ_{n_i∈c} Σ_{n_j∈O−c} Cor(n_i, n_j) / ((|c|−1)·|O−c|), where |c|−1 is the
// number of feature nodes in the clique. The inner sum over the whole
// object is served from the model's per-(feature, object) memo and
// corrected by subtracting the clique features present in O.
func smoothing(m *corr.Model, feats []media.FID, o *media.Object) float64 {
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
		total := m.ObjectCor(fi, o)
		// Remove contributions of clique members that are in O.
		for _, fj := range feats {
			if o.Has(fj) {
				total -= m.Cor(fi, fj)
			}
		}
		sum += total
	}
	return sum / (float64(len(feats)) * float64(rest))
}

// PotentialParts returns the two candidate-dependent components of the
// Eq. 7 conditional for one clique feature set: the set-frequency ratio
// freq(n_1..n_k|O)/|O| and the smoothing mean. They are computed with the
// same arithmetic the scoring paths use, so per-block maxima taken over
// them upper-bound (up to reassociation rounding; see the index package's
// bound inflation) every conditional the clique can produce for those
// postings at any (α, λ, CorS) — which is what lets the inverted index
// store parameter-independent block summaries.
func PotentialParts(m *corr.Model, feats []media.FID, o *media.Object) (sf, sm float64) {
	total := o.TotalCount()
	if total == 0 || len(feats) == 0 {
		return 0, 0
	}
	return setFreq(feats, o) / float64(total), smoothing(m, feats, o)
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
