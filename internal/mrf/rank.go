package mrf

import (
	"context"
	"sync"
	"sync/atomic"

	"figfusion/internal/media"
	"figfusion/internal/obs"
	"figfusion/internal/par"
	"figfusion/internal/topk"
)

// cancelStride is how many candidates a ranking stripe scores between
// context checks. Scoring one candidate costs microseconds, so a stride of
// 64 bounds cancellation latency well under a millisecond while keeping
// the per-candidate overhead to a predictable-taken branch.
const cancelStride = 64

// Rank gives every candidate the full compiled score and keeps the top k
// with a positive one — the one ranking loop behind indexed search, the
// sequential scan and recommendation, which differ only in where the
// candidates and the compiled set come from. workers bounds the fan-out
// (0 = NumCPU); with more than one and enough candidates to matter,
// scoring stripes across goroutines and the partial top-k lists merge under
// topk.Less's total order, so the result is byte-identical at any worker
// count. tr, when non-nil, receives the score and merge spans. A done
// context returns ctx.Err() and no items; it is polled every cancelStride
// candidates per stripe, and only when cancellable, so Background-context
// callers pay nothing.
func (cs *CliqueSet) Rank(ctx context.Context, candidates []media.ObjectID, k, workers int, tr *obs.QueryTrace) ([]topk.Item, error) {
	return cs.rank(ctx, candidates, k, workers, tr, cs.ScoreScratch)
}

// RankClique ranks one posting list by the i-th clique's potential alone —
// Algorithm 1's per-list scores. The whole list comes back best-first,
// minus the postings that score ≤ 0.
func (cs *CliqueSet) RankClique(ctx context.Context, i int, postings []media.ObjectID, workers int) ([]topk.Item, error) {
	return cs.rank(ctx, postings, len(postings), workers, nil, func(sc *Scratch, o *media.Object) float64 {
		return cs.PotentialScratch(sc, i, o)
	})
}

func (cs *CliqueSet) rank(ctx context.Context, candidates []media.ObjectID, k, workers int, tr *obs.QueryTrace,
	score func(*Scratch, *media.Object) float64) ([]topk.Item, error) {
	corpus := cs.s.Model.Stats.Corpus()
	done := ctx.Done()
	workers = par.Workers(workers, len(candidates))
	if len(candidates) < 2*workers {
		workers = 1
	}
	partial := make([][]topk.Item, workers)
	var cancelled atomic.Bool
	stripe := func(w int) {
		sc := cs.GetScratch()
		defer cs.PutScratch(sc)
		h := topk.NewHeap(k)
		for i, n := w, 0; i < len(candidates); i, n = i+workers, n+1 {
			if done != nil && n%cancelStride == 0 && ctx.Err() != nil {
				cancelled.Store(true)
				return
			}
			oid := candidates[i]
			if s := score(sc, corpus.Object(oid)); s > 0 {
				h.Push(topk.Item{ID: oid, Score: s})
			}
		}
		partial[w] = h.Results()
	}
	st := tr.Begin()
	if workers == 1 {
		stripe(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				stripe(w)
			}(w)
		}
		wg.Wait()
	}
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	tr.End(obs.StageScore, st)
	st = tr.Begin()
	out := partial[0]
	if workers > 1 {
		out = topk.MergeRanked(partial, k)
	}
	tr.End(obs.StageMerge, st)
	return out, nil
}
