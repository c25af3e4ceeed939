// Package index implements the inverted list on cliques of Section 3.5:
// every database object is converted to its Feature Interaction Graph, the
// graph's cliques are enumerated, and for each clique the index stores the
// correlation strength CorS of its features together with the list of
// objects containing the clique. At query time the index yields, for every
// clique of the query's FIG, the candidate objects sharing that clique —
// Algorithm 1's InvList(c_i) — so retrieval avoids a sequential scan of D.
//
// Memory layout: after Build or Load the index is sealed into flat arenas —
// all postings in one shared []media.ObjectID, all feature lists in one
// shared []media.FID, all block summaries in one shared []Block, and all
// entry headers in one []Entry slice — with each Entry holding (offset,
// length) views into the shared storage. A
// millions-of-objects index is then a handful of large allocations instead
// of per-clique pointer soup, which is what keeps steady-state RSS
// postings-sized and lets the segment loader reconstruct the index with a
// few bulk copies. Insert still works after sealing: entry views carry
// capacity == length, so appending a posting copy-on-writes that one entry
// out of the arena without disturbing its neighbours.
package index

import (
	"fmt"
	"sort"
	"sync"
	"unsafe"

	"figfusion/internal/corr"
	"figfusion/internal/fig"
	"figfusion/internal/media"
	"figfusion/internal/par"
)

// Entry is one inverted-list row: the clique's correlation-strength weight
// and the sorted postings of objects whose FIG contains the clique. CorS
// is the Eq. 9 importance weight as defined by corr.Stats.CliqueWeight —
// exactly the value the MRF scorer would compute at query time, so the
// indexed search paths serve it from here instead of recomputing it.
//
// CliqueWeight depends on corpus-global statistics, so a stored CorS is
// only the scorer's value for the corpus state it was computed from. Each
// entry therefore carries the corr.Model statistics generation of that
// computation; readers go through CorSAt, which refuses to serve a value
// from another generation.
//
// Feats, Objects and the block summaries behind BlocksAt are views into
// the index's shared arenas once the index is sealed (they carry
// cap == len, so appends copy out rather than clobber a neighbour's
// postings).
type Entry struct {
	Feats   []media.FID
	CorS    float64
	Objects []media.ObjectID

	// blocks are the block-max summaries over Objects (see blocks.go),
	// one per run of BlockLen postings. They share corsGen: blocks and
	// CorS are always recomputed together, and both go stale together
	// when the corpus moves on. Read through BlocksAt.
	blocks []Block

	// corsGen is the model generation CorS was computed at. staleGen
	// marks a value known to predate the current corpus (set by Load for
	// entries that were already stale when saved).
	corsGen uint64
}

// staleGen is a generation stamp no live model ever reaches, marking an
// entry whose CorS must not be served at any generation.
const staleGen = ^uint64(0)

// CorSAt returns the stored Eq. 9 weight if it was computed at the given
// statistics generation. After an Insert grew the corpus, entries the
// insert did not touch fail this check and callers must recompute through
// corr.Model.CliqueWeight (whose memo is stamped with the same generations).
func (e *Entry) CorSAt(gen uint64) (float64, bool) {
	if e.corsGen != gen {
		return 0, false
	}
	return e.CorS, true
}

// arena is the sealed index's flat backing storage. keys is the sorted,
// interned clique-key table (the same string instances the lookup map
// keys on); ents holds every entry header in key order; the remaining
// slices back the per-entry views. Sealing never appends to these — an
// Insert that grows an entry copies that entry's view out instead — so
// *Entry pointers into ents stay valid for the life of the index.
type arena struct {
	keys   []string
	ents   []Entry
	feats  []media.FID
	posts  []media.ObjectID
	blocks []Block
}

// Inverted is the clique inverted index. It is immutable after Build and
// safe for concurrent reads.
type Inverted struct {
	entries map[string]*Entry
	// gen is the model generation of the most recent full or partial CorS
	// refresh (Build, Insert or Load); an entry is up to date iff its own
	// stamp equals it. Save uses this to persist staleness.
	gen uint64
	// arena is the flat backing storage (nil only mid-construction; Build
	// and Load both seal before returning).
	arena *arena
	// extraKeys are clique keys Insert added after sealing, unsorted.
	// SaveAt merges them with the arena's sorted key table instead of
	// re-sorting the whole key space on every save.
	extraKeys []string
	// loadStats records how the index was loaded (nil for built indexes);
	// see LoadStats.
	loadStats *LoadStats
}

// Build constructs the index over the model's corpus: each object's FIG is
// built with bopts and its cliques enumerated with eopts (the same options
// later used on queries, so query cliques line up with indexed cliques).
// FIG construction and entry weighting fan out across CPUs; see
// BuildWorkers to pin the fan-out. The result is deterministic.
func Build(m *corr.Model, bopts fig.Options, eopts fig.EnumerateOptions) *Inverted {
	return BuildWorkers(m, bopts, eopts, 0)
}

// BuildWorkers is Build with a bounded fan-out (0 = NumCPU, mirroring
// retrieval.Config.Workers). The index is identical at any worker count:
// the FIG stage merges per-worker results in object-ID order, and the
// closing weighting stage stripes the entries — sorted once by clique key —
// across workers that each write only their own disjoint entries, computing
// the corpus-global Eq. 9 weight with a per-worker scratch.
func BuildWorkers(m *corr.Model, bopts fig.Options, eopts fig.EnumerateOptions, wopt int) *Inverted {
	return BuildOwnedWorkers(m, bopts, eopts, wopt, nil)
}

// BuildOwnedWorkers builds the index over the subset of corpus objects for
// which owns returns true (nil = every object) — the per-shard builder of
// the scatter-gather serving subsystem. Only the postings are partitioned:
// each entry's CorS stays the corpus-global Eq. 9 weight computed from the
// full statistics, so a shard scores its candidates exactly as a corpus-wide
// index would. Deterministic at any worker count, same as BuildWorkers.
func BuildOwnedWorkers(m *corr.Model, bopts fig.Options, eopts fig.EnumerateOptions, wopt int, owns func(media.ObjectID) bool) *Inverted {
	corpus := m.Stats.Corpus()
	n := corpus.Len()
	workers := par.Workers(wopt, n)
	type objCliques struct {
		id      media.ObjectID
		cliques []fig.Clique
	}
	results := make([][]objCliques, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				o := corpus.Object(media.ObjectID(i))
				if owns != nil && !owns(o.ID) {
					continue
				}
				g := fig.Build(o, m, bopts)
				results[w] = append(results[w], objCliques{id: o.ID, cliques: g.Cliques(eopts)})
			}
		}(w)
	}
	wg.Wait()

	inv := &Inverted{entries: make(map[string]*Entry)}
	// Merge in object-ID order so postings come out sorted. Worker w visited
	// IDs w, w+workers, … in increasing order and kept only the owned ones,
	// so replaying the same stripe walk with a filter consumes each worker's
	// list exactly in step.
	cursors := make([]int, workers)
	for i := 0; i < n; i++ {
		if owns != nil && !owns(media.ObjectID(i)) {
			continue
		}
		w := i % workers
		oc := results[w][cursors[w]]
		cursors[w]++
		for _, c := range oc.cliques {
			key := c.Key()
			e, ok := inv.entries[key]
			if !ok {
				e = &Entry{Feats: append([]media.FID(nil), c.Feats...)}
				inv.entries[key] = e
			}
			if len(e.Objects) == 0 || e.Objects[len(e.Objects)-1] != oc.id {
				e.Objects = append(e.Objects, oc.id)
			}
		}
	}
	// Attach the stored correlation-strength weights (the Eq. 9 quantity
	// the scorer applies, already clamped non-negative), stamped with the
	// statistics generation they were computed from. This loop dominates
	// the build at scale — one posting-list merge plus z-score pass per
	// distinct clique — and every weight is a pure function of one entry
	// and the immutable statistics, so entries stripe across workers
	// writing disjoint rows (trivially deterministic; the key sort only
	// keeps the partitioning stable).
	gen := m.Generation()
	inv.gen = gen
	keys := make([]string, 0, len(inv.entries))
	for key := range inv.entries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	par.Range(len(keys), wopt, func(lo, hi int) {
		var ws corr.WeightScratch
		for i := lo; i < hi; i++ {
			e := inv.entries[keys[i]]
			e.CorS = m.Stats.CliqueWeightWith(e.Feats, &ws)
			computeBlocks(m, e)
			e.corsGen = gen
		}
	})
	inv.seal(keys)
	return inv
}

// seal flattens the index's per-entry storage into shared arenas: one copy
// pass in sorted-key order, after which the map's values point into the
// arena's entry slice and every per-entry slice from construction is
// garbage. keys must be the sorted key table covering exactly the map.
func (inv *Inverted) seal(keys []string) {
	a := &arena{keys: keys, ents: make([]Entry, len(keys))}
	var nFeats, nPosts, nBlocks int
	for _, k := range keys {
		e := inv.entries[k]
		nFeats += len(e.Feats)
		nPosts += len(e.Objects)
		nBlocks += len(e.blocks)
	}
	a.feats = make([]media.FID, 0, nFeats)
	a.posts = make([]media.ObjectID, 0, nPosts)
	a.blocks = make([]Block, 0, nBlocks)
	for i, k := range keys {
		e := inv.entries[k]
		fo, po, bo := len(a.feats), len(a.posts), len(a.blocks)
		a.feats = append(a.feats, e.Feats...)
		a.posts = append(a.posts, e.Objects...)
		a.blocks = append(a.blocks, e.blocks...)
		a.ents[i] = Entry{
			Feats:   a.feats[fo:len(a.feats):len(a.feats)],
			CorS:    e.CorS,
			Objects: a.posts[po:len(a.posts):len(a.posts)],
			blocks:  a.blocks[bo:len(a.blocks):len(a.blocks)],
			corsGen: e.corsGen,
		}
		inv.entries[k] = &a.ents[i]
	}
	inv.arena = a
	inv.extraKeys = nil
}

// sortedKeys returns every clique key in sorted order, reusing the sealed
// arena's interned key table: with no post-seal inserts it is returned
// as-is (zero allocation), otherwise the few inserted keys are sorted and
// merged with it. Only an unsealed index (never produced by Build or Load)
// pays a full collect-and-sort.
func (inv *Inverted) sortedKeys() []string {
	if inv.arena != nil && len(inv.extraKeys) == 0 {
		return inv.arena.keys
	}
	if inv.arena != nil {
		extras := append([]string(nil), inv.extraKeys...)
		sort.Strings(extras)
		base := inv.arena.keys
		out := make([]string, 0, len(base)+len(extras))
		i, j := 0, 0
		for i < len(base) && j < len(extras) {
			if base[i] <= extras[j] {
				out = append(out, base[i])
				i++
			} else {
				out = append(out, extras[j])
				j++
			}
		}
		out = append(out, base[i:]...)
		out = append(out, extras[j:]...)
		return out
	}
	keys := make([]string, 0, len(inv.entries))
	for k := range inv.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Lookup returns the index entry for a clique's feature set.
func (inv *Inverted) Lookup(c fig.Clique) (*Entry, bool) {
	e, ok := inv.entries[c.Key()]
	return e, ok
}

// LookupKey is Lookup with a precomputed clique key (fig.Clique.Key) —
// for callers resolving the same cliques against many shard indexes.
func (inv *Inverted) LookupKey(key string) (*Entry, bool) {
	e, ok := inv.entries[key]
	return e, ok
}

// NumCliques returns the number of distinct indexed cliques.
func (inv *Inverted) NumCliques() int { return len(inv.entries) }

// Postings returns the total number of postings across all cliques.
func (inv *Inverted) Postings() int {
	total := 0
	for _, e := range inv.entries {
		total += len(e.Objects)
	}
	return total
}

// mapBytesPerKey is MemoryBytes' estimate of the lookup map's per-key
// bucket share: string header, pointer and bucket overhead.
const mapBytesPerKey = 48

// MemoryBytes estimates the index's resident heap footprint: the arena
// payloads (postings, feature lists, block summaries, entry headers, key
// bytes) plus a fixed per-entry estimate for the lookup map's bucket
// overhead. Entries grown or added by Insert after sealing are
// counted through the same per-entry accounting. The number is an
// estimate — Go's allocator rounds size classes — but it tracks the real
// footprint closely enough for the index.resident.bytes gauge to be
// meaningful.
func (inv *Inverted) MemoryBytes() int64 {
	// Per-entry fixed cost: the Entry header plus the lookup map's share.
	const perEntry = int64(unsafe.Sizeof(Entry{})) + mapBytesPerKey
	var b int64
	var nPosts, nFeats, nBlocks, keyBytes int64
	if inv.arena != nil {
		nPosts = int64(cap(inv.arena.posts))
		nFeats = int64(cap(inv.arena.feats))
		nBlocks = int64(cap(inv.arena.blocks))
		for _, k := range inv.arena.keys {
			keyBytes += int64(len(k))
		}
		// Entries copied out of the arena by Insert double-count their
		// arena slots; that slack is real (the arena keeps the dead bytes).
		for _, k := range inv.extraKeys {
			keyBytes += int64(len(k))
			e := inv.entries[k]
			nPosts += int64(cap(e.Objects))
			nFeats += int64(cap(e.Feats))
			nBlocks += int64(cap(e.blocks))
		}
	} else {
		for k, e := range inv.entries {
			keyBytes += int64(len(k))
			nPosts += int64(cap(e.Objects))
			nFeats += int64(cap(e.Feats))
			nBlocks += int64(cap(e.blocks))
		}
	}
	b += nPosts * 4                              // postings
	b += nFeats * 4                              // feature lists
	b += nBlocks * int64(unsafe.Sizeof(Block{})) // block summaries
	b += keyBytes                                // interned key bytes (map and table share them)
	b += int64(len(inv.entries)) * perEntry
	return b
}

// Entries returns all entries sorted by descending posting-list length,
// useful for diagnostics and the Figure 6 qualitative drill-down.
func (inv *Inverted) Entries() []*Entry {
	out := make([]*Entry, 0, len(inv.entries))
	for _, e := range inv.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Objects) != len(out[j].Objects) {
			return len(out[i].Objects) > len(out[j].Objects)
		}
		return lessFIDs(out[i].Feats, out[j].Feats)
	})
	return out
}

func lessFIDs(a, b []media.FID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Insert adds one object's cliques to the index: new postings are appended
// (the object ID must exceed all indexed IDs so lists stay sorted) and the
// stored CorS and block summaries of every touched clique are recomputed
// from the model's current statistics and stamped with its generation.
// Entries the insert does not touch keep their old generation stamp:
// CliqueWeight and the block maxima are corpus-global, so their stored
// values no longer describe the grown corpus, and CorSAt/BlocksAt report
// them stale — the indexed search paths then fall back to the scorer
// (respectively, to unpruned scoring) instead of serving diverged state.
// Build from scratch refreshes (and restamps) everything.
//
// On a sealed index the append copy-on-writes the touched entry's views
// out of the shared arenas (their capacity equals their length), so
// neighbouring entries' postings are never disturbed; new cliques get
// individually allocated entries tracked in extraKeys for SaveAt's merge.
func (inv *Inverted) Insert(id media.ObjectID, cliques []fig.Clique, m *corr.Model) error {
	touched := make([]*Entry, 0, len(cliques))
	for _, c := range cliques {
		key := c.Key()
		e, ok := inv.entries[key]
		if !ok {
			e = &Entry{Feats: append([]media.FID(nil), c.Feats...)}
			inv.entries[key] = e
			if inv.arena != nil {
				inv.extraKeys = append(inv.extraKeys, key)
			}
		}
		if n := len(e.Objects); n > 0 && e.Objects[n-1] >= id {
			if e.Objects[n-1] == id {
				continue // duplicate clique of the same object
			}
			return fmt.Errorf("index: object %d inserted out of order", id)
		}
		e.Objects = append(e.Objects, id)
		touched = append(touched, e)
	}
	gen := m.Generation()
	inv.gen = gen
	for _, e := range touched {
		e.CorS = m.Stats.CliqueWeight(e.Feats)
		computeBlocks(m, e)
		e.corsGen = gen
	}
	return nil
}
