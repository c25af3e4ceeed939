package shard

import (
	"math"
	"sync"
	"time"

	"figfusion/internal/obs"
	"figfusion/internal/topk"
)

// Fanout is the leg runner both scatter-gather tiers share: the router's
// legs are its shards, the cluster front-end's are its nodes. It runs the
// legs, times each into a per-leg latency histogram, records the spread
// between the fastest and slowest leg of one scatter — the quantity that
// bounds scatter-gather tail latency — and folds the answers. What a
// failed leg means stays with the caller: the router aborts the query, the
// cluster degrades to a partial answer. The zero Fanout records nothing.
type Fanout struct {
	latency   *obs.Histogram
	straggler *obs.Histogram
}

// NewFanout returns a runner recording into the two named histograms of
// reg (a nil registry hands out nil histograms: the untimed runner).
func NewFanout(reg *obs.Registry, latency, straggler string) Fanout {
	return Fanout{latency: reg.Histogram(latency), straggler: reg.Histogram(straggler)}
}

// Leg is one leg's answer.
type Leg struct {
	Items []topk.Item
	Err   error
}

// Scatter runs legs 0..n-1 and returns once all have answered. A single
// leg runs inline, and so do several when overlap is false: goroutines buy
// nothing for CPU-bound legs on one processor, so the router passes
// GOMAXPROCS > 1, while the cluster's legs wait on peers and always
// overlap.
func (f Fanout) Scatter(n int, overlap bool, run func(i int) ([]topk.Item, error)) []Leg {
	legs := make([]Leg, n)
	durs := make([]time.Duration, n)
	one := func(i int) {
		start := time.Now()
		legs[i].Items, legs[i].Err = run(i)
		durs[i] = time.Since(start)
	}
	if n == 1 || !overlap {
		for i := 0; i < n; i++ {
			one(i)
		}
	} else {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				one(i)
			}(i)
		}
		wg.Wait()
	}
	// The straggler gap is only meaningful past one leg.
	fastest, slowest := time.Duration(math.MaxInt64), time.Duration(0)
	for _, d := range durs {
		f.latency.Observe(d)
		fastest, slowest = min(fastest, d), max(slowest, d)
	}
	if n > 1 {
		f.straggler.Observe(slowest - fastest)
	}
	return legs
}

// MergeLegs folds the legs that answered into one exact top-k under
// topk.MergeRanked's total order: legs cover disjoint partitions, so the
// fold is independent of how the corpus was split.
func MergeLegs(legs []Leg, k int) []topk.Item {
	lists := make([][]topk.Item, 0, len(legs))
	for _, l := range legs {
		if l.Err == nil {
			lists = append(lists, l.Items)
		}
	}
	return topk.MergeRanked(lists, k)
}
