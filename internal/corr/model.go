package corr

import (
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"figfusion/internal/floatcache"
	"figfusion/internal/lexicon"
	"figfusion/internal/media"
	"figfusion/internal/par"
	"figfusion/internal/social"
	"figfusion/internal/vision"
)

// Thresholds holds the trained correlation threshold for each ordered kind
// pair; the table is kept symmetric by construction. An edge is drawn in a
// FIG iff Cor(n1, n2) exceeds the threshold for the nodes' kinds
// (Section 3.2).
type Thresholds [media.NumKinds][media.NumKinds]float64

// DefaultThresholds are used until TrainThresholds is called. They reflect
// the scales of the underlying similarity functions: WUP for text (same
// hypernym group ⇒ ≥ ~0.7), 1/(1+d) for visual words, Jaccard for users
// (any shared group), cosine co-occurrence for inter-type pairs.
func DefaultThresholds() Thresholds {
	var th Thresholds
	for a := 0; a < media.NumKinds; a++ {
		for b := 0; b < media.NumKinds; b++ {
			th[a][b] = 0.1 // inter-type cosine default
		}
	}
	th[media.Text][media.Text] = 0.6
	th[media.Visual][media.Visual] = 0.5
	th[media.Audio][media.Audio] = 0.5
	th[media.User][media.User] = 1e-9
	return th
}

// Model evaluates Cor(·,·) between interned features, dispatching on the
// modality pair exactly as Section 3.2 prescribes:
//
//	text × text     → WUP over the taxonomy (falling back to Eq. 1 for
//	                  out-of-taxonomy words, which the paper notes is an
//	                  orthogonal choice);
//	visual × visual → similarity from Euclidean distance between the
//	                  corresponding 16-D visual words;
//	user × user     → shared-group correlation (graded by Jaccard);
//	inter-type      → Eq. 1 statistical co-occurrence cosine.
//
// The Model owns every memo derived from the corpus statistics (clique
// weights, smoothing sums) and Append, the one mutation that drops them.
// Eq. 1 needs no memo: Stats answers it from its pair store. Safe for
// concurrent readers; Append must be serialized against them.
type Model struct {
	Stats      *Stats
	Taxonomy   *lexicon.Taxonomy
	Vocab      *vision.Vocabulary
	Network    *social.Network
	VisualWord map[media.FID]int           // FID → visual word index
	UserOf     map[media.FID]social.UserID // FID → user
	Thresholds Thresholds

	// AudioVocab/AudioWord extend the dispatch to the audio modality
	// (music corpora); set via SetAudio.
	AudioVocab *vision.Vocabulary
	AudioWord  map[media.FID]int

	// gen counts invalidations of the corpus-global statistics. The memos
	// below — and the weights and block summaries the inverted index stores
	// — stamp what they hold with the generation it was computed from. No
	// λ, α or δ enters them, so everything over this model shares them.
	gen atomic.Uint64
	// cors memoises the Eq. 9 clique weight by canonical clique key.
	cors *floatcache.Cache[string]
	// smooth memoises (FID, ObjectID) → Σ_{f_j∈O} Cor(f, f_j). Cliques
	// share features heavily, so caching this sum turns the Eq. 7
	// smoothing term from O(|c|·|O|) correlation evaluations per potential
	// into O(|c|) lookups.
	smooth *floatcache.Cache[uint64]
}

// NewModel wires a correlation model over the given substrates. Any of
// taxonomy, vocab or network may be nil, in which case the corresponding
// intra-type rule falls back to the Eq. 1 cosine.
func NewModel(stats *Stats, tax *lexicon.Taxonomy, vocab *vision.Vocabulary, net *social.Network,
	visualWord map[media.FID]int, userOf map[media.FID]social.UserID) *Model {
	return &Model{
		Stats:      stats,
		Taxonomy:   tax,
		Vocab:      vocab,
		Network:    net,
		VisualWord: visualWord,
		UserOf:     userOf,
		Thresholds: DefaultThresholds(),
		cors:       floatcache.New[string](floatcache.HashString),
		smooth:     floatcache.New[uint64](floatcache.HashUint64),
	}
}

// Generation returns the current statistics generation. It increases on
// every InvalidateCache; derived caches compare it against the stamp of
// their entries.
func (m *Model) Generation() uint64 { return m.gen.Load() }

// CacheStats are the lifetime hit and miss counts of the model's two
// memos — the observability hook the serving metrics expose. Misses are
// exact; hits are a sampled estimate (see floatcache.Cache.Stats).
type CacheStats struct {
	CorSHits, CorSMisses     uint64
	SmoothHits, SmoothMisses uint64
}

// CacheStats snapshots the memo counters.
func (m *Model) CacheStats() CacheStats {
	var s CacheStats
	s.CorSHits, s.CorSMisses = m.cors.Stats()
	s.SmoothHits, s.SmoothMisses = m.smooth.Stats()
	return s
}

// Cor returns the correlation between two interned features in [0, 1].
func (m *Model) Cor(a, b media.FID) float64 {
	if a == b {
		return 1
	}
	dict := m.Stats.Corpus().Dict
	fa, fb := dict.Feature(a), dict.Feature(b)
	if fa.Kind == fb.Kind {
		switch fa.Kind {
		case media.Text:
			if m.Taxonomy != nil {
				if wup, ok := m.Taxonomy.WUP(fa.Name, fb.Name); ok {
					return wup
				}
			}
		case media.Visual:
			if m.Vocab != nil {
				wa, oka := m.VisualWord[a]
				wb, okb := m.VisualWord[b]
				if oka && okb {
					return m.Vocab.WordSimilarity(wa, wb)
				}
			}
		case media.User:
			if m.Network != nil {
				ua, oka := m.UserOf[a]
				ub, okb := m.UserOf[b]
				if oka && okb {
					return m.Network.GroupSimilarity(ua, ub)
				}
			}
		case media.Audio:
			if m.AudioVocab != nil {
				wa, oka := m.AudioWord[a]
				wb, okb := m.AudioWord[b]
				if oka && okb {
					return m.AudioVocab.WordSimilarity(wa, wb)
				}
			}
		}
	}
	return m.Stats.Cosine(a, b)
}

// SetAudio wires the audio-word substrate into the model's intra-type
// dispatch, extending the fusion to music corpora. The vocabulary shares
// the vector-quantization type of the visual substrate.
func (m *Model) SetAudio(vocab *vision.Vocabulary, words map[media.FID]int) {
	m.AudioVocab = vocab
	m.AudioWord = words
}

// CliqueWeight is Stats.CliqueWeight, the Eq. 9 importance weight, memoised
// under the clique's canonical key. The inverted index stores the same
// quantity per entry, so indexed search paths rarely come here.
func (m *Model) CliqueWeight(key string, feats []media.FID) float64 {
	gen := m.gen.Load()
	if v, ok := m.cors.Get(gen, key); ok {
		return v
	}
	v := m.Stats.CliqueWeight(feats)
	// Store only if the generation is unchanged since the pre-compute
	// load: a value derived from post-insert statistics must not be
	// stamped with the pre-insert generation, where same-generation
	// readers would trust it. (See the floatcache package comment for why
	// this check narrows, but external serialization of stats mutation
	// eliminates, the race.)
	if m.gen.Load() == gen {
		m.cors.Put(gen, key, v)
	}
	return v
}

// ObjectCor returns the memoised Σ_{f_j∈O} Cor(f, f_j) — the inner sum of
// the Eq. 7 smoothing term. o must belong to the model's corpus: the memo
// is keyed by its stable ObjectID.
func (m *Model) ObjectCor(f media.FID, o *media.Object) float64 {
	key := uint64(uint32(f))<<32 | uint64(uint32(o.ID))
	gen := m.gen.Load()
	if v, ok := m.smooth.Get(gen, key); ok {
		return v
	}
	var v float64
	for _, fj := range o.Feats {
		v += m.Cor(f, fj)
	}
	// Same store-side re-check as CliqueWeight.
	if m.gen.Load() == gen {
		m.smooth.Put(gen, key, v)
	}
	return v
}

// Correlated reports whether the trained threshold admits an edge between
// the two features (Section 3.2).
func (m *Model) Correlated(a, b media.FID) bool {
	if a == b {
		return false // no self loops in a FIG
	}
	dict := m.Stats.Corpus().Dict
	ka := dict.Feature(a).Kind
	kb := dict.Feature(b).Kind
	return m.Cor(a, b) > m.Thresholds[ka][kb]
}

// TrainThresholds learns one threshold per kind pair from the corpus, the
// paper's "trained correlation threshold". For each kind pair it samples
// correlations of feature pairs co-occurring within sampled objects and sets
// the threshold at the given upper quantile (e.g. quantile 0.2 keeps the
// top 20% strongest co-occurring pairs as edges). Kind pairs with no samples
// keep their previous thresholds. The correlation evaluations fan out over
// every CPU; see TrainThresholdsWorkers to pin the fan-out.
func (m *Model) TrainThresholds(sampleObjects int, quantile float64, rng *rand.Rand) {
	m.TrainThresholdsWorkers(sampleObjects, quantile, rng, 0)
}

// TrainThresholdsWorkers is TrainThresholds with a bounded fan-out
// (0 = NumCPU). The trained thresholds are identical at any worker count:
// pair sampling stays serial (the rng draw order is untouched), the workers
// only evaluate Cor — a pure function of the immutable corpus statistics —
// into fixed slots of the sampled-pair slice, and the quantiles are taken
// over the per-kind-pair sample lists assembled serially in sample order.
func (m *Model) TrainThresholdsWorkers(sampleObjects int, quantile float64, rng *rand.Rand, workers int) {
	corpus := m.Stats.Corpus()
	if corpus.Len() == 0 || sampleObjects <= 0 {
		return
	}
	quantile = math.Max(0, math.Min(1, quantile))
	type sampledPair struct {
		a, b   media.FID
		ka, kb media.Kind
		v      float64
	}
	var pairsList []sampledPair
	for s := 0; s < sampleObjects; s++ {
		o := corpus.Object(media.ObjectID(rng.Intn(corpus.Len())))
		// Bound per-object pair work so a few giant objects cannot dominate
		// the training budget.
		const maxPairsPerObject = 200
		pairs := 0
		for i := 0; i < len(o.Feats) && pairs < maxPairsPerObject; i++ {
			for j := i + 1; j < len(o.Feats) && pairs < maxPairsPerObject; j++ {
				a, b := o.Feats[i], o.Feats[j]
				pairsList = append(pairsList, sampledPair{
					a: a, b: b,
					ka: corpus.KindOf(a), kb: corpus.KindOf(b),
				})
				pairs++
			}
		}
	}
	// Cor only reads the statistics, so the evaluations stripe freely;
	// each worker writes only its own slots.
	par.Range(len(pairsList), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pairsList[i].v = m.Cor(pairsList[i].a, pairsList[i].b)
		}
	})
	samples := make([][media.NumKinds][]float64, media.NumKinds)
	for _, p := range pairsList {
		samples[p.ka][p.kb] = append(samples[p.ka][p.kb], p.v)
		if p.ka != p.kb {
			samples[p.kb][p.ka] = append(samples[p.kb][p.ka], p.v)
		}
	}
	for a := 0; a < media.NumKinds; a++ {
		for b := 0; b < media.NumKinds; b++ {
			vals := samples[a][b]
			if len(vals) == 0 {
				continue
			}
			sort.Float64s(vals)
			idx := int(float64(len(vals)) * (1 - quantile))
			if idx >= len(vals) {
				idx = len(vals) - 1
			}
			if idx < 0 {
				idx = 0
			}
			m.Thresholds[a][b] = vals[idx]
		}
	}
}

// Append ingests one new object: it joins the corpus, the statistics grow
// in place, and everything memoised from them is dropped, since every
// corpus-global quantity shifts with an insertion. Bad input is rejected
// before anything changes; trained thresholds are kept. Not safe to call
// concurrently with readers of the model.
func (m *Model) Append(feats []media.Feature, counts []int, month int) (*media.Object, error) {
	o, err := m.Stats.Corpus().Add(feats, counts, month)
	if err != nil {
		return nil, err
	}
	if err := m.Stats.Append(o); err != nil {
		return nil, err
	}
	m.InvalidateCache()
	return o, nil
}

// InvalidateCache advances the statistics generation and drops the memos;
// index-stored weights and block summaries of the old generation go stale
// with them. Append's last step, exported for tests that grow Stats by hand.
func (m *Model) InvalidateCache() {
	m.gen.Add(1)
	m.cors.Reset()
	m.smooth.Reset()
}
