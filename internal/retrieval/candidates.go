package retrieval

import (
	"sync"

	"figfusion/internal/index"
	"figfusion/internal/media"
)

// candAccum is the per-query scratch state of candidate generation: the
// query cliques' index entries, their posting-list cursors, and the merged
// candidate IDs. Accumulators are pooled — candidate generation runs once
// per query on the serving path, and the maps this replaced were the query
// path's largest steady-state allocation.
type candAccum struct {
	entries []*index.Entry
	lists   [][]media.ObjectID
	cursors []int
	heap    []int32
	ids     []media.ObjectID
}

var accumPool = sync.Pool{New: func() interface{} { return new(candAccum) }}

func getAccum() *candAccum { return accumPool.Get().(*candAccum) }

// maxPooledCands bounds the candidate-scaled capacity a pooled accumulator
// may retain. The candidate slices grow with the query's posting-list
// union, so one adversarially broad query would otherwise pin its peak
// allocation in the pool forever; slices beyond the bound are released to
// the GC instead of being recycled.
const maxPooledCands = 1 << 16

func putAccum(a *candAccum) {
	// Drop references into the index so pooled accumulators do not pin
	// posting lists of a retired index; keep the scalar slices' capacity.
	for i := range a.entries {
		a.entries[i] = nil
	}
	for i := range a.lists {
		a.lists[i] = nil
	}
	a.entries = a.entries[:0]
	a.lists = a.lists[:0]
	a.cursors = a.cursors[:0]
	a.heap = a.heap[:0]
	if cap(a.ids) > maxPooledCands {
		a.ids = nil
	} else {
		a.ids = a.ids[:0]
	}
	accumPool.Put(a)
}

// lookupKeys resolves each query clique — by its precomputed index key,
// so no shard re-encodes what Prepare already encoded — to its index entry
// (nil when the clique is not indexed) and collects the non-empty posting
// lists.
func (a *candAccum) lookupKeys(inv *index.Inverted, keys []string) {
	for _, k := range keys {
		a.add(inv.LookupKey(k))
	}
}

func (a *candAccum) add(entry *index.Entry, ok bool) {
	if !ok {
		a.entries = append(a.entries, nil)
		return
	}
	a.entries = append(a.entries, entry)
	if len(entry.Objects) > 0 {
		a.lists = append(a.lists, entry.Objects)
	}
}

// merge performs a multi-way merge over the sorted posting lists: a
// min-heap over the list heads emits every distinct candidate once, in
// ascending ID order — the per-query map this replaces allocated and hashed
// on every posting, and a head-scan per candidate would be O(candidates ×
// lists); the heap keeps it O(total postings × log lists). The returned
// slice is owned by the accumulator and valid until putAccum.
func (a *candAccum) merge(exclude media.ObjectID) []media.ObjectID {
	if len(a.lists) == 0 {
		return nil
	}
	if cap(a.cursors) < len(a.lists) {
		a.cursors = make([]int, len(a.lists))
	}
	a.cursors = a.cursors[:len(a.lists)]
	for i := range a.cursors {
		a.cursors[i] = 0
	}
	a.heap = a.heap[:0]
	for li := range a.lists {
		a.heap = append(a.heap, int32(li))
	}
	for i := len(a.heap)/2 - 1; i >= 0; i-- {
		a.siftDown(i)
	}
	for len(a.heap) > 0 {
		min := a.head(a.heap[0])
		// Drain every list whose head equals min: advance its cursor and
		// restore the heap (or drop the list once exhausted).
		for len(a.heap) > 0 && a.head(a.heap[0]) == min {
			li := a.heap[0]
			a.cursors[li]++
			if a.cursors[li] < len(a.lists[li]) {
				a.siftDown(0)
			} else {
				last := len(a.heap) - 1
				a.heap[0] = a.heap[last]
				a.heap = a.heap[:last]
				if len(a.heap) > 1 {
					a.siftDown(0)
				}
			}
		}
		if min == exclude {
			continue
		}
		a.ids = append(a.ids, min)
	}
	return a.ids
}

// head returns the ObjectID at list li's cursor; only called for lists
// still on the heap, whose cursors are in bounds by construction.
func (a *candAccum) head(li int32) media.ObjectID {
	return a.lists[li][a.cursors[li]]
}

// siftDown restores the min-heap property (ordered by head ObjectID) from
// position i downward.
func (a *candAccum) siftDown(i int) {
	n := len(a.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && a.head(a.heap[right]) < a.head(a.heap[left]) {
			smallest = right
		}
		if a.head(a.heap[i]) <= a.head(a.heap[smallest]) {
			return
		}
		a.heap[i], a.heap[smallest] = a.heap[smallest], a.heap[i]
		i = smallest
	}
}
