package retrieval

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"figfusion/internal/index"
	"figfusion/internal/media"
	"figfusion/internal/mrf"
	"figfusion/internal/obs"
	"figfusion/internal/topk"
)

// PruningMode selects how SearchTA merges the query cliques' posting lists.
type PruningMode int

const (
	// PruneOff is the eager Threshold Algorithm: every posting of every
	// query clique is scored and sorted before the merge starts. The
	// library default, and the reference the parity tests and the
	// benchmark compare PruneBlockMax against.
	PruneOff PruningMode = iota
	// PruneBlockMax merges through lazily materialised posting blocks:
	// postings in blocks whose upper bound never reaches the merge
	// frontier are never scored. Results are byte-identical to PruneOff
	// at any worker and shard count; this is the mode the serving
	// binaries run.
	PruneBlockMax
)

// String names the mode.
func (m PruningMode) String() string {
	switch m {
	case PruneOff:
		return "off"
	case PruneBlockMax:
		return "blockmax"
	}
	return fmt.Sprintf("PruningMode(%d)", int(m))
}

// ParsePruningMode is the inverse of String (case-insensitive).
func ParsePruningMode(s string) (PruningMode, error) {
	switch strings.ToLower(s) {
	case "off":
		return PruneOff, nil
	case "blockmax":
		return PruneBlockMax, nil
	}
	return PruneOff, fmt.Errorf("retrieval: unknown pruning mode %q (want off or blockmax)", s)
}

// boundSlack is the relative inflation applied to every block-max bound.
// A stored block maximum dominates each posting's conditional components
// in real arithmetic, but the query-time bound multiplies them in a
// different association order than potentialAt (λ·w first versus λ·cond
// first), so the computed bound can round below a computed potential by a
// few ulps (~2⁻⁵⁰ relative). Inflating by one part in 10¹² — twelve
// orders of magnitude above the rounding error, twelve below any score
// difference the tie-break could see — restores a safe inequality without
// ever flipping the comparison for scores that genuinely differ.
const boundSlack = 1e-12

// blockBounds appends one query clique's per-block potential upper bounds
// to dst: for each block, wl·((1−α)·MaxSF + α·MaxSM) plus a slack term
// proportional to the magnitudes of the participating terms (see
// boundSlack and index.Block.MinSM — magnitude-relative slack stays sound
// even when the sf and sm terms cancel). Returns nil when the entry's
// blocks are stale for gen: the caller must treat the clique as
// unboundable and fall back to unpruned behaviour for anything it covers.
func blockBounds(dst []float64, cs *mrf.CliqueSet, ci int, entry *index.Entry, gen uint64) []float64 {
	blocks, ok := entry.BlocksAt(gen)
	if !ok {
		return nil
	}
	alpha := cs.ScoringParams().Alpha
	wl := cs.WeightedLambda(ci)
	for _, b := range blocks {
		sfTerm := (1 - alpha) * b.MaxSF
		smMag := b.MaxSM
		if -b.MinSM > smMag {
			smMag = -b.MinSM
		}
		if smMag < 0 {
			smMag = 0
		}
		u := wl*(sfTerm+alpha*b.MaxSM) + wl*(sfTerm+alpha*smMag)*boundSlack
		dst = append(dst, u)
	}
	return dst
}

// lazyShared is the state all of one query's lazy cursors share. The
// merge is single-goroutine, so plain fields and one scoring scratch
// suffice: once poll observes a done context the cancelled flag flips and
// every cursor reports exhaustion, unwinding the merge without scoring
// another posting.
type lazyShared struct {
	ctx       context.Context
	done      <-chan struct{}
	cancelled bool
	sc        *mrf.Scratch
}

// poll checks the context (only when it is cancellable) and latches the
// result. Called once per block of postings scored — at most
// index.BlockLen potentials between checks, the same cancellation latency
// class as the ranking loop's stride.
func (s *lazyShared) poll() bool {
	if s.cancelled {
		return true
	}
	if s.done != nil && s.ctx.Err() != nil {
		s.cancelled = true
	}
	return s.cancelled
}

// lazyElem is one pending element of a cursor's frontier heap: a
// materialised posting (block < 0) or a still-summarised block carrying
// its upper bound and first object ID. The heap orders by (score
// descending, ID ascending) — topk.Less extended to blocks — which makes
// the emitted posting stream exactly the sorted order the eager path
// produces: a block always surfaces before any posting whose score its
// bound could dominate, and at exact score ties the ID comparison is
// decisive because a block's postings all carry IDs at or above its
// MinID.
type lazyElem struct {
	score float64
	id    media.ObjectID
	block int32
}

func lazyLess(a, b lazyElem) bool {
	//figlint:allow floatcmp -- mirrors topk.Less: the frontier needs the exact total order, an epsilon band breaks the heap invariant
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// lazyCursor walks one clique's posting list best-first, materialising
// blocks only when their upper bound reaches the frontier. It implements
// topk.LazySource for the pruned TA path.
type lazyCursor struct {
	shared  *lazyShared
	cs      *mrf.CliqueSet
	ci      int
	entry   *index.Entry
	corpus  *media.Corpus
	exclude media.ObjectID
	h       []lazyElem
	ub      []float64     // per-block upper bounds; nil when summaries are stale
	scored  [][]float64   // per-block potential memo, filled by materialize
	slab    []float64     // backing store for scored, one slice per cursor
	blocks  []index.Block // the entry's summaries; random access searches their ID ranges
	nBlocks int
	nMat    int
	// filter is a 1024-bit membership filter over the posting IDs (bit
	// id mod 1024). Most TA random accesses ask about objects that are
	// not in this clique's list; a clear bit answers the miss with two
	// loads instead of a binary search. Set bits are conservative — a
	// collision just falls through to the exact lookup.
	filter [16]uint64
}

// pushElem / popTop maintain the frontier as a hand-rolled binary heap —
// container/heap would box every posting into an interface value, undoing
// the allocation discipline the scoring paths keep.
func (c *lazyCursor) pushElem(e lazyElem) {
	c.h = append(c.h, e)
	i := len(c.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !lazyLess(c.h[i], c.h[parent]) {
			break
		}
		c.h[i], c.h[parent] = c.h[parent], c.h[i]
		i = parent
	}
}

func (c *lazyCursor) popTop() lazyElem {
	top := c.h[0]
	last := len(c.h) - 1
	c.h[0] = c.h[last]
	c.h = c.h[:last]
	i := 0
	for {
		left := 2*i + 1
		if left >= len(c.h) {
			break
		}
		best := left
		if right := left + 1; right < len(c.h) && lazyLess(c.h[right], c.h[left]) {
			best = right
		}
		if !lazyLess(c.h[best], c.h[i]) {
			break
		}
		c.h[i], c.h[best] = c.h[best], c.h[i]
		i = best
	}
	return top
}

// materialize scores one block's postings into the frontier, applying the
// same exclusion and positive-score filters as the eager list builder. The
// raw potentials are memoised per block so the TA random accesses (score)
// never recompute what the merge already paid for.
func (c *lazyCursor) materialize(bi int32) {
	if c.shared.poll() {
		return
	}
	c.nMat++
	lo := int(bi) * index.BlockLen
	hi := min(lo+index.BlockLen, len(c.entry.Objects))
	if c.slab == nil {
		c.slab = make([]float64, len(c.entry.Objects))
	}
	memo := c.slab[lo:hi:hi]
	for j, oid := range c.entry.Objects[lo:hi] {
		if oid == c.exclude {
			continue
		}
		p := c.cs.PotentialScratch(c.shared.sc, c.ci, c.corpus.Object(oid))
		memo[j] = p
		if p <= 0 {
			continue
		}
		c.pushElem(lazyElem{score: p, id: oid, block: -1})
	}
	c.scored[bi] = memo
}

// next yields the cursor's postings in exact topk.Less order: whenever a
// block tops the frontier its postings are materialised and re-enter the
// ordering with their true scores, so no posting is ever emitted while a
// block that could dominate it remains summarised. Blocks whose bound is
// ≤ 0 were dropped at init — every posting they hold scores ≤ 0 and the
// eager path would have filtered it too.
func (c *lazyCursor) next() (topk.Item, bool) {
	for len(c.h) > 0 {
		if c.shared.cancelled {
			return topk.Item{}, false
		}
		top := c.popTop()
		if top.block >= 0 {
			c.materialize(top.block)
			continue
		}
		return topk.Item{ID: top.id, Score: top.score}, true
	}
	return topk.Item{}, false
}

// score is the TA random access: the posting's potential if the object is
// in this clique's list (and would have survived the eager path's
// filters), 0 otherwise. Valid at any cursor position — it consults the
// full posting list, not the frontier.
func (c *lazyCursor) score(id media.ObjectID) float64 {
	if c.shared.cancelled || id == c.exclude {
		return 0
	}
	if c.filter[(uint32(id)>>6)&15]&(1<<(uint32(id)&63)) == 0 {
		return 0
	}
	objs := c.entry.Objects
	if c.blocks != nil {
		// Block-first random access: a hand-rolled binary search over
		// the blocks' MaxIDs — a small, cache-resident array — picks
		// the one block that could hold the object, and the decision
		// finishes inside it. Most TA random accesses miss (the object
		// is not in this clique's list); they end right here, past the
		// last block or in the ID gap before the block's first posting,
		// without ever touching the posting list. A block whose bound
		// is ≤ 0 also answers 0 without scoring: the bound dominates
		// every potential inside it, so the eager path would have
		// filtered the posting too.
		bs := c.blocks
		lo, hi := 0, len(bs)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if bs[mid].MaxID < id {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bi := lo
		if bi == len(bs) || id < bs[bi].MinID {
			return 0
		}
		if c.ub[bi] <= 0 {
			return 0
		}
		blo := bi * index.BlockLen
		j, ok := slices.BinarySearch(objs[blo:min(blo+index.BlockLen, len(objs))], id)
		if !ok {
			return 0
		}
		if memo := c.scored[bi]; memo != nil {
			// The memoised value is the identical float the merge
			// computed — returning it preserves byte-exactness.
			if p := memo[j]; p > 0 {
				return p
			}
			return 0
		}
	} else if _, ok := slices.BinarySearch(objs, id); !ok {
		// Stale summaries: membership by binary search over the full
		// posting list, the unpruned lookup.
		return 0
	}
	p := c.cs.PotentialScratch(c.shared.sc, c.ci, c.corpus.Object(id))
	if p <= 0 {
		return 0
	}
	return p
}

// searchTALazy is the block-max TA path: one lazy cursor per indexed query
// clique feeds topk.ThresholdMergeLazy, which is step-for-step the
// Threshold Algorithm of the eager path. Because each cursor emits its
// postings in exactly the order the eager sorted lists hold them (see
// lazyElem), the result is byte-identical to cliqueLists +
// topk.ThresholdMerge — the exactness contract — while postings in blocks
// the threshold never reaches are never scored at all. Lists whose block
// summaries are stale (untouched entries after an Insert, or a pre-blocks
// snapshot) are materialised eagerly, which is precisely the unpruned
// behaviour for that list. Cancellation is polled once per block of
// postings scored (≤ index.BlockLen), materialised or stale.
func (e *Engine) searchTALazy(ctx context.Context, cs *mrf.CliqueSet, entries []*index.Entry, exclude media.ObjectID, k int, tr *obs.QueryTrace) ([]topk.Item, error) {
	corpus := e.Model.Stats.Corpus()
	gen := e.Model.Generation()
	shared := &lazyShared{ctx: ctx, done: ctx.Done(), sc: cs.GetScratch()}
	defer cs.PutScratch(shared.sc)
	cursors := make([]*lazyCursor, 0, len(entries))
	for i, entry := range entries {
		if entry == nil {
			continue
		}
		c := &lazyCursor{shared: shared, cs: cs, ci: i, entry: entry, corpus: corpus, exclude: exclude}
		for _, oid := range entry.Objects {
			c.filter[(uint32(oid)>>6)&15] |= 1 << (uint32(oid) & 63)
		}
		ub := blockBounds(nil, cs, i, entry, gen)
		if ub == nil {
			for j, oid := range entry.Objects {
				if j%index.BlockLen == 0 && shared.poll() {
					return nil, ctx.Err()
				}
				if oid == exclude {
					continue
				}
				p := cs.PotentialScratch(shared.sc, i, corpus.Object(oid))
				if p <= 0 {
					continue
				}
				c.pushElem(lazyElem{score: p, id: oid, block: -1})
			}
		} else {
			c.nBlocks = len(ub)
			c.ub = ub
			c.scored = make([][]float64, len(ub))
			// The summaries alias straight in as the cursor's
			// random-access search array — no per-query copy.
			c.blocks, _ = entry.BlocksAt(gen)
			for bi, u := range ub {
				if u <= 0 {
					continue
				}
				c.pushElem(lazyElem{score: u, id: entry.Objects[bi*index.BlockLen], block: int32(bi)})
			}
		}
		cursors = append(cursors, c)
	}
	sources := make([]topk.LazySource, len(cursors))
	for i, c := range cursors {
		sources[i] = topk.LazySource{Next: c.next, Score: c.score}
	}
	out := topk.ThresholdMergeLazy(sources, k)
	if shared.cancelled {
		return nil, ctx.Err()
	}
	skipped := 0
	for _, c := range cursors {
		skipped += c.nBlocks - c.nMat
	}
	tr.AddPruneBlocks(skipped)
	return out, nil
}
