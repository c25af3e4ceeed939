package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"figfusion/internal/api"
	"figfusion/internal/dataset"
	"figfusion/internal/media"
)

const (
	topK           = 10 // every query asks k=10 and excludes itself
	verifyQueries  = 24 // held-out queries of the correctness check…
	verifySearches = 12 // …of which this many are also asked on the slow search path
	numClients     = 2  // closed-loop clients, one connection each
	baseSeconds    = 10 // the -seconds at which phaseSpec.Ops applies
)

type opKind uint8

const (
	opTA opKind = iota
	opSearch
	opInsert
)

func (k opKind) String() string { return [...]string{"ta", "search", "insert"}[k] }

// op is one request of an op list: a read of corpus object Query, or an
// insert re-posting the exact features of the held-out object Source, which
// the system must assign id Query (corpus size + inserts before it).
type op struct {
	Kind   opKind             `json:"kind"`
	Query  int64              `json:"query"`
	Source int64              `json:"source,omitempty"`
	Insert *api.InsertRequest `json:"insert,omitempty"`
}

func (o op) String() string {
	if o.Kind == opInsert {
		return fmt.Sprintf("insert(source=%d,as=%d)", o.Source, o.Query)
	}
	return fmt.Sprintf("%s(id=%d,k=%d)", o.Kind, o.Query, topK)
}

// request renders a read as its wire request.
func (o op) request() *api.SearchRequest {
	id := o.Query
	return &api.SearchRequest{ID: &id, K: topK, Exclude: &id, TA: o.Kind == opTA}
}

// phase is a phaseSpec with its generated op list. Op ids are global:
// Ops[i] is op First+i of the run.
type phase struct {
	phaseSpec
	Ops   []op
	First int
}

// clientOf assigns op i of the phase to a client: i mod 2, except that a
// pure insert phase runs on client 0 alone so object ids are assigned in
// list order. In a mixed phase the inserts sit on even indices for the
// same reason.
func (p *phase) clientOf(i int) int {
	if p.Kind == inserts {
		return 0
	}
	return i % numClients
}

// plan is everything a run asks of the system, derived from the seed and
// the dataset alone.
type plan struct {
	Phases  []phase
	Verify  []int64 // held-out verification queries
	Sources []int64 // insert sources, in insert order
	Total   int
}

// scaled applies the -seconds scale to an op count, keeping at least one
// op per client.
func scaled(n int, scale float64) int {
	if s := int(math.Round(float64(n) * scale)); s > numClients {
		return s
	}
	return numClients
}

// isMixedInsert places the mixed phase's inserts on op indices 10 and 20
// of every 22: one insert per ten reads, always on an even index.
func isMixedInsert(i int) bool { return i%22 == 10 || i%22 == 20 }

// buildPlan generates the workload's op lists. Which objects a phase
// queries or re-posts is a fixture, drawn once from the corpus seed, so
// two runs time the same population and differ by the system alone; the
// run's seed decides what a cache-bearing server is sensitive to — the
// order of every list, which keys are hot and the zipf draws over them,
// and where the writes fall among the reads. The same seed, dataset and
// scale give byte-identical lists (encode).
func buildPlan(w *workloadSpec, d *dataset.Dataset, seed int64, scale float64) (*plan, error) {
	pool := rand.New(rand.NewSource(corpusSeed + 29)).Perm(d.Corpus.Len())
	rng := rand.New(rand.NewSource(seed))
	// draw takes the next n objects of the fixed pool, in seed order.
	draw := func(n int) ([]int, error) {
		if n > len(pool) {
			return nil, fmt.Errorf("workload %s: corpus of %d objects is too small for its op lists at this -seconds", w.Name, d.Corpus.Len())
		}
		ids := append([]int(nil), pool[:n]...)
		pool = pool[n:]
		rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		return ids, nil
	}
	pl := &plan{}
	for _, id := range pool[:verifyQueries] {
		pl.Verify = append(pl.Verify, int64(id))
	}
	pool = pool[verifyQueries:]
	insert := func(src int) op {
		assigned := int64(d.Corpus.Len() + len(pl.Sources))
		pl.Sources = append(pl.Sources, int64(src))
		return op{Kind: opInsert, Query: assigned, Source: int64(src), Insert: insertRequest(d, int64(src))}
	}
	var keys []op // reads asked so far in latency phases: the hits phase's key space
	for _, spec := range w.Phases {
		ph := phase{phaseSpec: spec, First: pl.Total}
		n := scaled(spec.Ops, scale)
		switch spec.Kind {
		case distinctTA, distinctSearch:
			kind := opTA
			if spec.Kind == distinctSearch {
				kind = opSearch
			}
			ids, err := draw(n)
			if err != nil {
				return nil, err
			}
			for _, id := range ids {
				ph.Ops = append(ph.Ops, op{Kind: kind, Query: int64(id)})
			}
			if spec.Latency {
				keys = append(keys, ph.Ops...)
			}
		case hits:
			if len(keys) < 2 {
				return nil, fmt.Errorf("workload %s: phase %s has no filled keys to repeat", w.Name, spec.Name)
			}
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(keys)-1))
			for i := 0; i < n; i++ {
				ph.Ops = append(ph.Ops, keys[zipf.Uint64()])
			}
		case mixed:
			var kinds []opKind
			var count [3]int
			for reads := 0; reads < n; {
				kind := opSearch
				switch {
				case isMixedInsert(len(kinds)):
					kind = opInsert
				case reads%10 < 8:
					kind = opTA
				}
				if kind != opInsert {
					reads++
				}
				kinds = append(kinds, kind)
				count[kind]++
			}
			var ids [3][]int
			for kind := range ids {
				var err error
				if ids[kind], err = draw(count[kind]); err != nil {
					return nil, err
				}
			}
			for _, kind := range kinds {
				id := ids[kind][0]
				ids[kind] = ids[kind][1:]
				if kind == opInsert {
					ph.Ops = append(ph.Ops, insert(id))
				} else {
					ph.Ops = append(ph.Ops, op{Kind: kind, Query: int64(id)})
				}
			}
		case inserts:
			ids, err := draw(n)
			if err != nil {
				return nil, err
			}
			for _, id := range ids {
				ph.Ops = append(ph.Ops, insert(id))
			}
		}
		pl.Total += len(ph.Ops)
		pl.Phases = append(pl.Phases, ph)
	}
	return pl, nil
}

// insertRequest renders corpus object id as the insert that re-posts its
// exact (kind, name, count) features.
func insertRequest(d *dataset.Dataset, id int64) *api.InsertRequest {
	src := d.Corpus.Object(media.ObjectID(id))
	feats := make([]media.Feature, len(src.Feats))
	counts := make([]int, len(src.Feats))
	for i, fid := range src.Feats {
		feats[i] = d.Corpus.Dict.Feature(fid)
		counts[i] = int(src.Counts[i])
	}
	return &api.InsertRequest{Features: api.EncodeFeatures(feats, counts), Month: src.Month}
}

// insertOps returns the plan's insert ops in the order they are applied.
func (pl *plan) insertOps() []op {
	var out []op
	for _, ph := range pl.Phases {
		for _, o := range ph.Ops {
			if o.Kind == opInsert {
				out = append(out, o)
			}
		}
	}
	return out
}

// encode serialises the op lists; the determinism test compares it across
// two generations.
func (pl *plan) encode() ([]byte, error) { return json.Marshal(pl) }
