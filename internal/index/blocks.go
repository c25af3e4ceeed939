package index

import (
	"figfusion/internal/corr"
	"figfusion/internal/media"
	"figfusion/internal/mrf"
)

// BlockLen is the posting-block length of the block-max summaries: every
// entry's sorted posting list is cut into runs of up to BlockLen object
// IDs, each summarised by its ID range and the maxima of the two
// candidate-dependent components of the Eq. 7 conditional. The length
// trades summary footprint (one 40-byte block row per run) against pruning
// granularity (the lazy TA path scores a whole run the moment its bound
// surfaces). 64 keeps the summary under 8% of the posting list's
// footprint; halving it measured slower on the tracked -scale 4000 TA
// series — finer blocks mean more frontier-heap traffic, which costs
// more than the extra skipped potentials save.
const BlockLen = 64

// Block is one run's summary in row form — the shape the tests assemble
// expectations in. In memory the summaries are stored columnar (see
// BlockSlice).
type Block struct {
	MinID media.ObjectID
	MaxID media.ObjectID
	MaxSF float64
	MaxSM float64
	MinSM float64
}

// BlockSlice is a columnar view over an entry's block summaries: five
// parallel arrays, one element per block of up to BlockLen postings. MaxSF
// and MaxSM are maxima of the parameter-independent conditional components
// returned by mrf.PotentialParts — set-frequency ratio and
// smoothing mean — so one stored summary serves any (α, λ, CorS): the
// query-time upper bound for a clique with weighted lambda wl is
//
//	wl · ((1−α)·MaxSF[i] + α·MaxSM[i])
//
// inflated by the pruning layer's reassociation slack. MaxSM may be
// negative (the smoothing correction subtracts clique-internal
// correlations); a block whose bound comes out ≤ 0 can only hold postings
// the unpruned paths would drop too. MinSM — the most negative smoothing
// mean in the block — exists purely for the slack: the floating-point
// error of the bound comparison is relative to the magnitudes of the terms
// involved, not to their (possibly cancelling) sum, so the inflation term
// needs the largest |sm| in the block, which is max(|MaxSM|, |MinSM[i]|).
//
// On a sealed index the five arrays are sub-slices of the index's shared
// columnar arenas — the pruned TA path aliases MinID/MaxID directly as its
// random-access search arrays, with no per-query copy.
type BlockSlice struct {
	MinID []media.ObjectID
	MaxID []media.ObjectID
	MaxSF []float64
	MaxSM []float64
	MinSM []float64
}

// Len returns the number of blocks in the view.
func (b BlockSlice) Len() int { return len(b.MinID) }

// Block assembles row i of the view for tests; hot paths read the columns
// directly.
func (b BlockSlice) Block(i int) Block {
	return Block{MinID: b.MinID[i], MaxID: b.MaxID[i], MaxSF: b.MaxSF[i], MaxSM: b.MaxSM[i], MinSM: b.MinSM[i]}
}

// BlocksAt returns the entry's block summaries if they were computed at
// the given statistics generation — the same freshness contract as CorSAt.
// Both components depend on corpus-global state (object totals and the
// correlation tables), so after an Insert the blocks of untouched entries
// describe a corpus that no longer exists; serving them would silently
// break the block bound, the same failure class as the stale-weight
// bug the generation stamps were introduced for.
func (e *Entry) BlocksAt(gen uint64) (BlockSlice, bool) {
	if e.corsGen != gen || e.blocks.Len() == 0 {
		return BlockSlice{}, false
	}
	return e.blocks, true
}

// computeBlocks (re)builds an entry's block summaries from the current
// corpus, into owned columnar storage (sealing later migrates it into the
// shared arenas). Callers stamp the entry's generation alongside, as with
// CorS.
//
// An entry whose feature set names FIDs outside the dictionary (possible
// through Insert with caller-synthesized cliques) gets blocks without
// smoothing summaries: the correlation tables cannot describe unknown
// features — the scoring paths would equally fail on such an entry — while
// the set-frequency component needs only the candidate's own counts and
// stays exact (an unknown feature never occurs in a candidate, so its
// set frequency, like its conditional, is zero).
func computeBlocks(m *corr.Model, e *Entry) {
	corpus := m.Stats.Corpus()
	n := len(e.Objects)
	if n == 0 {
		e.blocks = BlockSlice{}
		return
	}
	known := true
	for _, fid := range e.Feats {
		if int(fid) >= corpus.Dict.Len() {
			known = false
			break
		}
	}
	nb := (n + BlockLen - 1) / BlockLen
	ids := make([]media.ObjectID, 2*nb)
	fs := make([]float64, 3*nb)
	b := BlockSlice{
		MinID: ids[:nb:nb], MaxID: ids[nb : 2*nb : 2*nb],
		MaxSF: fs[:nb:nb], MaxSM: fs[nb : 2*nb : 2*nb], MinSM: fs[2*nb : 3*nb : 3*nb],
	}
	for bi := 0; bi < nb; bi++ {
		lo := bi * BlockLen
		hi := lo + BlockLen
		if hi > n {
			hi = n
		}
		b.MinID[bi], b.MaxID[bi] = e.Objects[lo], e.Objects[hi-1]
		first := true
		for _, oid := range e.Objects[lo:hi] {
			var sf, sm float64
			if known {
				sf, sm = mrf.PotentialParts(m, e.Feats, corpus.Object(oid))
			}
			if first || sf > b.MaxSF[bi] {
				b.MaxSF[bi] = sf
			}
			if first || sm > b.MaxSM[bi] {
				b.MaxSM[bi] = sm
			}
			if first || sm < b.MinSM[bi] {
				b.MinSM[bi] = sm
			}
			first = false
		}
	}
	e.blocks = b
}
