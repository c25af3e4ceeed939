package mrf

import (
	"math"
	"sort"
	"sync"

	"figfusion/internal/fig"
	"figfusion/internal/media"
	"figfusion/internal/numeric"
)

// CliqueSet is a clique list — a query's, or a recommendation profile's —
// compiled against one scorer, and with Scratch the only Eq. 7 code that
// serves traffic (Scorer.Potential is the readable reference the tests
// compare it against). Every candidate-independent quantity of the
// Eq. 7/9/10 potential — λ_c, the Eq. 9 CorS weight, the Eq. 10 decay, and
// the clique-internal correlation matrix the smoothing correction subtracts
// — is evaluated once per compile instead of once per (clique, candidate)
// pair. A CliqueSet is immutable after Compile and safe to share across
// the scoring workers of one query; it computes bit-identical scores to
// Scorer.Score over the same cliques.
type CliqueSet struct {
	s       *Scorer
	cliques []fig.Clique
	lambda  []float64   // λ_c per clique (0 ⇒ the clique is skipped)
	weight  []float64   // Eq. 9 weight per clique
	decay   []float64   // Eq. 10 multiplier per clique; nil for a query
	pairCor [][]float64 // k×k row-major Cor(f_i, f_j) per clique; nil when α = 0
	feats   []media.FID // sorted distinct features of the active cliques
	featIdx [][]int32   // per active clique: positions of its Feats in feats

	// scratch recycles Scratch buffers across the scoring passes that share
	// this compiled query (the shards of a scatter-gather search); it does
	// not alter the compiled state, which stays immutable.
	scratch sync.Pool
}

// Compile precomputes the per-clique state for one query. weights, when
// non-nil, supplies the Eq. 9 weight per clique (the indexed paths pass
// the CorS values stored in the inverted index); a nil weights computes
// them through the model's memo. The weights slice must be aligned with
// cliques.
func (s *Scorer) Compile(cliques []fig.Clique, weights []float64) *CliqueSet {
	return s.compile(cliques, weights, nil)
}

// CompileDecayed compiles a recommendation profile: Eq. 10 is the Eq. 9
// potential times a per-clique multiplier (Σ δ^age over the clique's
// occurrences in the history), so a profile is a clique set whose
// potentials are scaled by decay[i] — applied after the CorS weight, so
// the product rounds as decay·ϕ′ does. Cliques whose multiplier is zero
// are skipped like cliques whose λ is. decay must be aligned with cliques.
func (s *Scorer) CompileDecayed(cliques []fig.Clique, decay []float64) *CliqueSet {
	return s.compile(cliques, nil, decay)
}

func (s *Scorer) compile(cliques []fig.Clique, weights, decay []float64) *CliqueSet {
	cs := &CliqueSet{
		s:       s,
		cliques: cliques,
		lambda:  make([]float64, len(cliques)),
		decay:   decay,
	}
	if s.Params.UseCorS {
		if weights != nil {
			cs.weight = weights
		} else {
			cs.weight = make([]float64, len(cliques))
			for i, c := range cliques {
				cs.weight[i] = s.CorS(c)
			}
		}
	}
	smoothed := s.Params.Alpha > 0
	if smoothed {
		cs.pairCor = make([][]float64, len(cliques))
	}
	seen := make(map[media.FID]struct{})
	for i, c := range cliques {
		if decay == nil || !numeric.IsZero(decay[i]) {
			cs.lambda[i] = s.Params.LambdaFor(len(c.Feats))
		}
		if numeric.IsZero(cs.lambda[i]) {
			continue
		}
		for _, f := range c.Feats {
			if _, ok := seen[f]; !ok {
				seen[f] = struct{}{}
				cs.feats = append(cs.feats, f)
			}
		}
		if !smoothed {
			continue
		}
		k := len(c.Feats)
		m := make([]float64, k*k)
		for a, fi := range c.Feats {
			for b, fj := range c.Feats {
				m[a*k+b] = s.Model.Cor(fi, fj)
			}
		}
		cs.pairCor[i] = m
	}
	// The scratch fill walks feats and a candidate's (sorted) feature list
	// in lockstep, so the distinct features must be sorted too.
	sort.Slice(cs.feats, func(a, b int) bool { return cs.feats[a] < cs.feats[b] })
	pos := make(map[media.FID]int32, len(cs.feats))
	for i, f := range cs.feats {
		pos[f] = int32(i)
	}
	cs.featIdx = make([][]int32, len(cliques))
	for i, c := range cliques {
		if numeric.IsZero(cs.lambda[i]) {
			continue
		}
		idx := make([]int32, len(c.Feats))
		for a, f := range c.Feats {
			idx[a] = pos[f]
		}
		cs.featIdx[i] = idx
	}
	return cs
}

// Len returns the number of compiled cliques.
func (cs *CliqueSet) Len() int { return len(cs.cliques) }

// ScoringParams exposes the parameters this set was compiled against, so
// the pruning layer can evaluate its block bounds with the same α the
// potentials use.
func (cs *CliqueSet) ScoringParams() Params { return cs.s.Params }

// WeightedLambda returns λ_c scaled by the compiled Eq. 9 weight (or λ_c
// alone when CorS weighting is off) for the i-th clique — the
// candidate-independent factor of potentialAt. Multiplying it by an upper
// bound on the Eq. 7 conditional bounds the clique's potential for any
// candidate, up to one reassociation of the λ·cond·w product.
func (cs *CliqueSet) WeightedLambda(i int) float64 {
	lambda := cs.lambda[i]
	if numeric.IsZero(lambda) {
		return 0
	}
	if cs.s.Params.UseCorS {
		lambda *= cs.weight[i]
	}
	return lambda
}

// Score is ScoreScratch on a pooled scratch, for callers that score one
// object at a time.
func (cs *CliqueSet) Score(o *media.Object) float64 {
	sc := cs.GetScratch()
	defer cs.PutScratch(sc)
	return cs.ScoreScratch(sc, o)
}

// Potential is PotentialScratch on a pooled scratch.
func (cs *CliqueSet) Potential(i int, o *media.Object) float64 {
	sc := cs.GetScratch()
	defer cs.PutScratch(sc)
	return cs.PotentialScratch(sc, i, o)
}

// Scratch is per-candidate scoring state for one CliqueSet, indexed by the
// set's distinct features: the candidate's feature counts, presence flags,
// and feature–object correlation sums. Filling it once per candidate
// replaces the per-clique binary searches (Count, Has) and smoothing-cache
// lookups that dominated the scoring profile — cliques share features, so
// the same (feature, candidate) state was being fetched once per clique.
// A Scratch belongs to one goroutine; each scoring worker makes its own.
type Scratch struct {
	counts  []int
	present []bool
	cors    []float64
}

// NewScratch returns a scratch sized for this clique set.
func (cs *CliqueSet) NewScratch() *Scratch {
	n := len(cs.feats)
	return &Scratch{
		counts:  make([]int, n),
		present: make([]bool, n),
		cors:    make([]float64, n),
	}
}

// GetScratch returns a pooled scratch for this compiled query, allocating
// one when the pool is empty. Scratches fully overwrite their state on
// every fill, so recycling needs no reset; return with PutScratch.
func (cs *CliqueSet) GetScratch() *Scratch {
	if v := cs.scratch.Get(); v != nil {
		return v.(*Scratch)
	}
	return cs.NewScratch()
}

// PutScratch recycles a scratch obtained from GetScratch. The scratch must
// not be used after return, and must only go back to the CliqueSet that
// issued it (scratch buffers are sized to the compiled feature set).
func (cs *CliqueSet) PutScratch(sc *Scratch) { cs.scratch.Put(sc) }

// fill loads the candidate's state for every distinct query feature: one
// linear merge over the two sorted feature lists for counts and presence,
// and (when smoothing is on) one corr.Model.ObjectCor memo read per feature
// for the feature–object correlation sum.
func (cs *CliqueSet) fill(sc *Scratch, o *media.Object) {
	j := 0
	for i, f := range cs.feats {
		for j < len(o.Feats) && o.Feats[j] < f {
			j++
		}
		if j < len(o.Feats) && o.Feats[j] == f {
			sc.counts[i] = int(o.Counts[j])
			sc.present[i] = true
		} else {
			sc.counts[i] = 0
			sc.present[i] = false
		}
	}
	if cs.s.Params.Alpha > 0 {
		for i, f := range cs.feats {
			sc.cors[i] = cs.s.Model.ObjectCor(f, o)
		}
	}
}

// PotentialScratch computes ϕ′ of the i-th compiled clique alone for a
// candidate — Algorithm 1's per-posting score: Eq. 7 scaled by λ_c and,
// when enabled, by the compiled Eq. 9 weight. It loads only that clique's
// scratch slots before evaluating it.
func (cs *CliqueSet) PotentialScratch(sc *Scratch, i int, o *media.Object) float64 {
	for _, idx := range cs.featIdx[i] {
		f := cs.feats[idx]
		c := o.Count(f)
		sc.counts[idx] = c
		sc.present[idx] = c > 0
		if cs.s.Params.Alpha > 0 {
			sc.cors[idx] = cs.s.Model.ObjectCor(f, o)
		}
	}
	return cs.potentialAt(sc, i, o)
}

// ScoreScratch computes the Eq. 6 similarity of a candidate object to the
// compiled set — the sum of its clique potentials — on caller-provided
// scratch state, the form the ranking workers use. The result is
// bit-identical to Scorer.Score: the scratch only changes where each
// operand is read from, never the value or the order of the
// floating-point operations.
func (cs *CliqueSet) ScoreScratch(sc *Scratch, o *media.Object) float64 {
	cs.fill(sc, o)
	var sum float64
	for i := range cs.cliques {
		sum += cs.potentialAt(sc, i, o)
	}
	return sum
}

func (cs *CliqueSet) potentialAt(sc *Scratch, i int, o *media.Object) float64 {
	lambda := cs.lambda[i]
	if numeric.IsZero(lambda) {
		return 0
	}
	phi := lambda * cs.conditionalAt(sc, i, o)
	if cs.s.Params.UseCorS {
		phi *= cs.weight[i]
	}
	if cs.decay != nil {
		phi *= cs.decay[i]
	}
	return phi
}

// conditionalAt is P(n_1..n_k | O_i) of Eq. 7 — Scorer.conditional with
// the counts read from the scratch.
func (cs *CliqueSet) conditionalAt(sc *Scratch, i int, o *media.Object) float64 {
	feats := cs.featIdx[i]
	total := o.TotalCount()
	if total == 0 || len(feats) == 0 {
		return 0
	}
	minCount := math.MaxInt32
	for _, idx := range feats {
		if c := sc.counts[idx]; c < minCount {
			minCount = c
		}
		if minCount == 0 {
			break
		}
	}
	p := (1 - cs.s.Params.Alpha) * float64(minCount) / float64(total)
	if cs.s.Params.Alpha > 0 {
		p += cs.s.Params.Alpha * cs.smoothingAt(sc, i, o)
	}
	return p
}

// smoothingAt is Scorer.smoothing with presence and feature–object
// correlation sums read from the scratch and the clique-internal
// correlations from the compiled matrix; iteration and subtraction order
// match exactly, so the floating-point result is bit-identical.
func (cs *CliqueSet) smoothingAt(sc *Scratch, i int, o *media.Object) float64 {
	feats := cs.featIdx[i]
	present := 0
	for _, idx := range feats {
		if sc.present[idx] {
			present++
		}
	}
	rest := o.Len() - present
	if rest == 0 {
		return 0
	}
	k := len(feats)
	cors := cs.pairCor[i]
	var sum float64
	for a, idxA := range feats {
		total := sc.cors[idxA]
		for b, idxB := range feats {
			if sc.present[idxB] {
				total -= cors[a*k+b]
			}
		}
		sum += total
	}
	return sum / (float64(k) * float64(rest))
}
