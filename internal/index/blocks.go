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
// trades summary footprint (one 32-byte Block per run) against pruning
// granularity (the lazy TA path scores a whole run the moment its bound
// surfaces). 64 keeps the summary at an eighth of the posting list's
// 4-byte-per-ID footprint; halving it measured slower on the tracked -scale 4000 TA
// series — finer blocks mean more frontier-heap traffic, which costs
// more than the extra skipped potentials save.
const BlockLen = 64

// Block is one run's summary: the run's ID range and the maxima of the
// parameter-independent conditional components returned by
// mrf.PotentialParts — set-frequency ratio and smoothing mean — so one
// stored summary serves any (α, λ, CorS): the query-time upper bound for a
// clique with weighted lambda wl is
//
//	wl · ((1−α)·MaxSF + α·MaxSM)
//
// inflated by the pruning layer's reassociation slack. MaxSM may be
// negative (the smoothing correction subtracts clique-internal
// correlations); a block whose bound comes out ≤ 0 can only hold postings
// the unpruned paths would drop too. MinSM — the most negative smoothing
// mean in the block — exists purely for the slack: the floating-point
// error of the bound comparison is relative to the magnitudes of the terms
// involved, not to their (possibly cancelling) sum, so the inflation term
// needs the largest |sm| in the block, which is max(|MaxSM|, |MinSM|).
//
// An entry holds one Block per run of up to BlockLen postings; on a sealed
// index that slice is a view into the index's shared block arena.
type Block struct {
	MinID media.ObjectID
	MaxID media.ObjectID
	MaxSF float64
	MaxSM float64
	MinSM float64
}

// BlocksAt returns the entry's block summaries if they were computed at
// the given statistics generation — the same freshness contract as CorSAt.
// Both components depend on corpus-global state (object totals and the
// correlation tables), so after an Insert the blocks of untouched entries
// describe a corpus that no longer exists; serving them would silently
// break the block bound, the same failure class as the stale-weight
// bug the generation stamps were introduced for.
func (e *Entry) BlocksAt(gen uint64) ([]Block, bool) {
	if e.corsGen != gen || len(e.blocks) == 0 {
		return nil, false
	}
	return e.blocks, true
}

// computeBlocks (re)builds an entry's block summaries from the current
// corpus into an owned slice (sealing later migrates it into the shared
// arena). Callers stamp the entry's generation alongside, as with CorS.
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
		e.blocks = nil
		return
	}
	known := true
	for _, fid := range e.Feats {
		if int(fid) >= corpus.Dict.Len() {
			known = false
			break
		}
	}
	blocks := make([]Block, (n+BlockLen-1)/BlockLen)
	for bi := range blocks {
		lo := bi * BlockLen
		hi := min(lo+BlockLen, n)
		b := &blocks[bi]
		b.MinID, b.MaxID = e.Objects[lo], e.Objects[hi-1]
		for j, oid := range e.Objects[lo:hi] {
			var sf, sm float64
			if known {
				sf, sm = mrf.PotentialParts(m, e.Feats, corpus.Object(oid))
			}
			if j == 0 || sf > b.MaxSF {
				b.MaxSF = sf
			}
			if j == 0 || sm > b.MaxSM {
				b.MaxSM = sm
			}
			if j == 0 || sm < b.MinSM {
				b.MinSM = sm
			}
		}
	}
	e.blocks = blocks
}
