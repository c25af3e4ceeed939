// Package corr implements the correlation machinery of the paper:
//
//   - Eq. 1 — the statistical co-occurrence correlation between two features,
//     the cosine of their object-incidence vectors, used for inter-type edges
//     and available for intra-type edges;
//   - the six pair-wise feature correlation tables (T×T, V×V, U×U, T×V,
//     T×U, V×U) consulted when building Feature Interaction Graphs
//     (Section 3.5);
//   - Eq. 8 — CorS, the multi-feature standardized co-moment (covariance
//     generalised beyond two variables) that weights cliques in Eq. 9;
//   - the trained correlation threshold that decides which correlations
//     become FIG edges (Section 3.2).
package corr

import (
	"fmt"
	"math"
	"slices"

	"figfusion/internal/media"
	"figfusion/internal/numeric"
)

// Stats holds per-feature corpus statistics: posting lists, frequency
// moments and the pair store behind Eq. 1. It is built once per corpus,
// grown by Append, and is safe for concurrent reads.
type Stats struct {
	corpus   *media.Corpus
	postings [][]media.ObjectID // FID -> sorted objects containing it
	pcounts  [][]uint16         // FID -> counts aligned with postings
	sumCount []float64          // FID -> Σ_i n_{f,i}
	sumSq    []float64          // FID -> Σ_i n_{f,i}²
	pairs    []pairRow          // FID a -> P[a, b] for every b > a sharing an object with a
}

// pairRow is one feature a's row of the pair store: every feature b > a
// that shares at least one object with a, ascending, with the co-moment
// P[a, b] = Σ_o n_{a,o}·n_{b,o} alongside. Each term is a product of two
// uint16 counts, so the float64 sum is an exact integer in any order —
// NewStats, Append and a per-object sum all give the same bits.
type pairRow struct {
	fids []media.FID
	dots []float64
}

// NewStats scans the corpus and builds posting lists, moments and the
// pair store.
func NewStats(c *media.Corpus) *Stats {
	nf := c.Dict.Len()
	s := &Stats{
		corpus:   c,
		postings: make([][]media.ObjectID, nf),
		pcounts:  make([][]uint16, nf),
		sumCount: make([]float64, nf),
		sumSq:    make([]float64, nf),
		pairs:    make([]pairRow, nf),
	}
	for _, o := range c.Objects {
		for i, fid := range o.Feats {
			cnt := float64(o.Counts[i])
			s.postings[fid] = append(s.postings[fid], o.ID)
			s.pcounts[fid] = append(s.pcounts[fid], o.Counts[i])
			s.sumCount[fid] += cnt
			s.sumSq[fid] += cnt * cnt
		}
	}
	// One row at a time: walk a's postings, accumulate each later feature
	// of those objects into a dense scratch, then emit the touched FIDs
	// sorted. seen[b] == a+1 marks b as already in row a.
	acc := make([]float64, nf)
	seen := make([]media.FID, nf)
	var touched []media.FID
	for a := range s.pairs {
		touched = touched[:0]
		for k, oid := range s.postings[a] {
			o := c.Object(oid)
			ca := float64(s.pcounts[a][k])
			i, _ := slices.BinarySearch(o.Feats, media.FID(a))
			for j := i + 1; j < len(o.Feats); j++ {
				b := o.Feats[j]
				if seen[b] != media.FID(a+1) {
					seen[b] = media.FID(a + 1)
					acc[b] = 0
					touched = append(touched, b)
				}
				acc[b] += ca * float64(o.Counts[j])
			}
		}
		if len(touched) == 0 {
			continue
		}
		slices.Sort(touched)
		row := pairRow{fids: slices.Clone(touched), dots: make([]float64, len(touched))}
		for i, b := range touched {
			row.dots[i] = acc[b]
		}
		s.pairs[a] = row
	}
	return s
}

// Corpus returns the corpus the stats were built from.
func (s *Stats) Corpus() *media.Corpus { return s.corpus }

// Postings returns the sorted list of objects containing fid.
func (s *Stats) Postings(fid media.FID) []media.ObjectID {
	if int(fid) >= len(s.postings) {
		return nil
	}
	return s.postings[fid]
}

// Norm returns |n⃗| of Eq. 1: the Euclidean norm of the feature's
// object-incidence vector.
func (s *Stats) Norm(fid media.FID) float64 {
	if int(fid) >= len(s.sumSq) {
		return 0
	}
	return math.Sqrt(s.sumSq[fid])
}

// Mean returns the mean frequency n̄_j of Eq. 8 across all objects.
func (s *Stats) Mean(fid media.FID) float64 {
	if int(fid) >= len(s.sumCount) || s.corpus.Len() == 0 {
		return 0
	}
	return s.sumCount[fid] / float64(s.corpus.Len())
}

// Variance returns the population variance var(n_j) of Eq. 8.
func (s *Stats) Variance(fid media.FID) float64 {
	if int(fid) >= len(s.sumSq) || s.corpus.Len() == 0 {
		return 0
	}
	n := float64(s.corpus.Len())
	mean := s.sumCount[fid] / n
	v := s.sumSq[fid]/n - mean*mean
	if v < 0 {
		return 0 // numerical noise
	}
	return v
}

// Dot returns n⃗1·n⃗2: the sum over objects of the product of the two
// features' frequencies, read from the pair store. Dot(a, a) is the
// feature's Σ n², and a pair that shares no object (or names a FID the
// statistics have never seen) is 0.
func (s *Stats) Dot(a, b media.FID) float64 {
	if a == b {
		if int(a) >= len(s.sumSq) {
			return 0
		}
		return s.sumSq[a]
	}
	if a > b {
		a, b = b, a
	}
	if int(a) >= len(s.pairs) {
		return 0
	}
	row := &s.pairs[a]
	if i, ok := slices.BinarySearch(row.fids, b); ok {
		return row.dots[i]
	}
	return 0
}

func (s *Stats) counts(fid media.FID) []uint16 {
	if int(fid) >= len(s.pcounts) {
		return nil
	}
	return s.pcounts[fid]
}

// Cosine computes Eq. 1: Cor(n1, n2) = n⃗1·n⃗2 / (|n⃗1|·|n⃗2|).
// Features that never occur give 0.
func (s *Stats) Cosine(a, b media.FID) float64 {
	na, nb := s.Norm(a), s.Norm(b)
	if numeric.IsZero(na) || numeric.IsZero(nb) {
		return 0
	}
	return s.Dot(a, b) / (na * nb)
}

// CorS computes Eq. 8 for the features of a clique:
//
//	CorS(n1..nk) = Σ_{i=1..|D|} Π_{j=1..k} (n_{j,i} − n̄_j) / sd(n_j)
//
// For k = 2 this is |D|·Pearson-correlation (the paper notes it reduces to
// covariance). For k = 1 the sum is identically zero by construction, so
// CorS is defined as 1 for singleton cliques — singleton cliques carry no
// interaction information to weight (Section 3.4 uses CorS to code the
// importance of multi-feature cliques).
//
// The exact sum is computed by streaming a cursor merge over the features'
// posting lists — visiting each union object once, in ascending ID order,
// without materialising the union — and adding an analytic correction for
// the objects containing none of the features, whose per-object term is
// the constant Π_j (−n̄_j / sd_j).
func (s *Stats) CorS(fids []media.FID) float64 {
	var ws WeightScratch
	return s.CorSWith(fids, &ws)
}

// WeightScratch holds the reusable per-call state of CorSWith and
// CliqueWeightWith, so bulk callers (the index build's weighting loop
// recomputes Eq. 9 for every distinct clique) avoid re-allocating cursor
// and moment slices tens of thousands of times. A scratch value must not
// be shared between concurrent calls; give each worker its own.
type WeightScratch struct {
	means, sds []float64
	lists      [][]media.ObjectID
	counts     [][]uint16
	cursors    []int
}

func (ws *WeightScratch) reset(k int) {
	if cap(ws.means) < k {
		ws.means = make([]float64, k)
		ws.sds = make([]float64, k)
		ws.lists = make([][]media.ObjectID, k)
		ws.counts = make([][]uint16, k)
		ws.cursors = make([]int, k)
	}
	ws.means = ws.means[:k]
	ws.sds = ws.sds[:k]
	ws.lists = ws.lists[:k]
	ws.counts = ws.counts[:k]
	ws.cursors = ws.cursors[:k]
	for j := range ws.cursors {
		ws.cursors[j] = 0
	}
}

// CorSWith is CorS using caller-provided scratch space.
func (s *Stats) CorSWith(fids []media.FID, ws *WeightScratch) float64 {
	if len(fids) <= 1 {
		return 1
	}
	n := s.corpus.Len()
	if n == 0 {
		return 0
	}
	k := len(fids)
	ws.reset(k)
	for j, fid := range fids {
		ws.means[j] = s.Mean(fid)
		v := s.Variance(fid)
		if numeric.IsZero(v) {
			return 0 // a constant feature correlates with nothing
		}
		ws.sds[j] = math.Sqrt(v)
		ws.lists[j] = s.Postings(fid)
		ws.counts[j] = s.counts(fid)
	}
	// k-way cursor merge: every iteration handles the smallest object ID
	// any cursor points at, multiplying the standardized per-feature terms
	// in fids order — the same product order the materialised-union loop
	// used, so the floating-point result is bit-identical.
	var sum float64
	unionLen := 0
	for {
		const noObject = media.ObjectID(^uint32(0) >> 1)
		next := noObject
		for j := range ws.lists {
			if c := ws.cursors[j]; c < len(ws.lists[j]) && ws.lists[j][c] < next {
				next = ws.lists[j][c]
			}
		}
		if next == noObject {
			break
		}
		unionLen++
		term := 1.0
		for j := range ws.lists {
			var cnt float64
			if c := ws.cursors[j]; c < len(ws.lists[j]) && ws.lists[j][c] == next {
				cnt = float64(ws.counts[j][c])
				ws.cursors[j] = c + 1
			}
			term *= (cnt - ws.means[j]) / ws.sds[j]
		}
		sum += term
	}
	// All-absent objects contribute the constant term.
	absentTerm := 1.0
	for j := range fids {
		absentTerm *= -ws.means[j] / ws.sds[j]
	}
	sum += float64(n-unionLen) * absentTerm
	return sum
}

// CliqueWeight returns the Eq. 9 importance weight of a clique's feature
// set, the single definition served both by Model.CliqueWeight's memo
// and by the CorS column the inverted index stores per entry (so indexed
// search paths can skip recomputing it).
//
// For two or more features this is Eq. 8 normalized by |D| (for k = 2
// exactly the Pearson correlation), clamped non-negative: anti-correlated
// feature sets contribute nothing rather than negating the score. For
// singleton cliques Eq. 8 is identically zero by construction, so the
// weight is the feature's standardized dispersion sd(n)/mean(n) — the
// k = 1 analogue of the same standardized co-moment, which for binary
// features equals √((|D|−df)/df), an idf-like measure that damps
// uninformative high-document-frequency features (most visibly the shared
// visual words). The relative scale between clique sizes is absorbed by
// the trained λ parameters.
func (s *Stats) CliqueWeight(fids []media.FID) float64 {
	var ws WeightScratch
	return s.CliqueWeightWith(fids, &ws)
}

// CliqueWeightWith is CliqueWeight using caller-provided scratch space; see
// WeightScratch. The index build's weighting loop calls this once per
// distinct clique with a per-worker scratch.
func (s *Stats) CliqueWeightWith(fids []media.FID, ws *WeightScratch) float64 {
	var v float64
	switch {
	case len(fids) == 0:
		return 0
	case len(fids) == 1:
		if mean := s.Mean(fids[0]); mean > 0 {
			v = math.Sqrt(s.Variance(fids[0])) / mean
		}
	default:
		if n := s.corpus.Len(); n > 0 {
			v = s.CorSWith(fids, ws) / float64(n)
		}
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Append folds one newly added corpus object into the statistics: posting
// lists, frequency moments and the pair store grow in place. The object
// must already be in the corpus this Stats was built from (same ObjectID
// space) and must have an ID larger than any previously accounted object,
// so posting lists stay sorted. Model.Append is the caller that also drops
// what was memoised from the statistics; corpus-level statistics shift
// with every insertion.
func (s *Stats) Append(o *media.Object) error {
	if int(o.ID) >= s.corpus.Len() || s.corpus.Object(o.ID) != o {
		return fmt.Errorf("corr: object %d is not part of the corpus", o.ID)
	}
	for i, fid := range o.Feats {
		for int(fid) >= len(s.postings) {
			s.postings = append(s.postings, nil)
			s.pcounts = append(s.pcounts, nil)
			s.sumCount = append(s.sumCount, 0)
			s.sumSq = append(s.sumSq, 0)
			s.pairs = append(s.pairs, pairRow{})
		}
		if n := len(s.postings[fid]); n > 0 && s.postings[fid][n-1] >= o.ID {
			return fmt.Errorf("corr: object %d appended out of order for feature %d", o.ID, fid)
		}
		cnt := float64(o.Counts[i])
		s.postings[fid] = append(s.postings[fid], o.ID)
		s.pcounts[fid] = append(s.pcounts[fid], o.Counts[i])
		s.sumCount[fid] += cnt
		s.sumSq[fid] += cnt * cnt
	}
	// o.Feats is sorted, so every pair (i, j > i) lands in row Feats[i].
	for i, a := range o.Feats {
		row := &s.pairs[a]
		for j := i + 1; j < len(o.Feats); j++ {
			p := float64(o.Counts[i]) * float64(o.Counts[j])
			k, ok := slices.BinarySearch(row.fids, o.Feats[j])
			if ok {
				row.dots[k] += p
				continue
			}
			row.fids = slices.Insert(row.fids, k, o.Feats[j])
			row.dots = slices.Insert(row.dots, k, p)
		}
	}
	return nil
}
