package dataset

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"figfusion/internal/corr"
	"figfusion/internal/lexicon"
	"figfusion/internal/media"
	"figfusion/internal/social"
	"figfusion/internal/vision"
)

// Dataset is a generated corpus together with every substrate the
// correlation model needs. It corresponds to Dret of Section 5.1.2.
type Dataset struct {
	Config   Config
	Corpus   *media.Corpus
	Taxonomy *lexicon.Taxonomy
	Vocab    *vision.Vocabulary
	Network  *social.Network

	// VisualWord maps interned visual features to vocabulary indices;
	// UserOf maps interned user features to network users. Both feed
	// corr.NewModel.
	VisualWord map[media.FID]int
	UserOf     map[media.FID]social.UserID

	// AudioVocab and AudioWord are set by GenerateMusic (the music
	// extension); nil/empty for photo corpora.
	AudioVocab *vision.Vocabulary
	AudioWord  map[media.FID]int

	topicTags  [][]string            // topic -> tag names
	topicUsers [][]string            // topic -> community user names
	protos     [][]vision.Descriptor // topic -> visual palette
	pool       []vision.Descriptor   // global prototype pool
	noiseTags  []string
}

// Generate builds a dataset from the configuration.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Dataset{
		Config:     cfg,
		Corpus:     media.NewCorpus(),
		Network:    social.NewNetwork(),
		VisualWord: make(map[media.FID]int),
		UserOf:     make(map[media.FID]social.UserID),
	}
	d.buildVocabularies(rng)
	if err := d.buildTaxonomy(); err != nil {
		return nil, err
	}
	d.buildCommunities(rng)
	d.buildPalettes(rng)
	if err := d.trainVisualVocabulary(rng); err != nil {
		return nil, err
	}
	if err := d.populate(rng); err != nil {
		return nil, err
	}
	d.buildFeatureMaps()
	return d, nil
}

func (d *Dataset) buildVocabularies(rng *rand.Rand) {
	cfg := d.Config
	d.topicTags = make([][]string, cfg.NumTopics)
	for t := range d.topicTags {
		tags := make([]string, cfg.TagsPerTopic)
		for i := range tags {
			tags[i] = fmt.Sprintf("topic%02dtag%02d", t, i)
		}
		d.topicTags[t] = tags
	}
	d.noiseTags = make([]string, cfg.NoiseTags)
	for i := range d.noiseTags {
		d.noiseTags[i] = fmt.Sprintf("noise%03d", i)
	}
}

// buildTaxonomy groups each topic's tags under a shared hypernym, with
// topics paired into domains; noise tags land in small "misc" groups so
// they too have some (spurious) lexical structure, as real free-form tags
// do.
func (d *Dataset) buildTaxonomy() error {
	var groups []lexicon.TopicGroup
	for t, tags := range d.topicTags {
		groups = append(groups, lexicon.TopicGroup{
			Name:   fmt.Sprintf("topic%02d", t),
			Domain: fmt.Sprintf("domain%d", t/4),
			Words:  tags,
		})
	}
	const miscGroups = 8
	misc := make([][]string, miscGroups)
	for i, tag := range d.noiseTags {
		misc[i%miscGroups] = append(misc[i%miscGroups], tag)
	}
	for i, words := range misc {
		if len(words) == 0 {
			continue
		}
		groups = append(groups, lexicon.TopicGroup{
			Name:   fmt.Sprintf("misc%d", i),
			Domain: "miscellany",
			Words:  words,
		})
	}
	tax, err := lexicon.Generate(groups)
	if err != nil {
		return err
	}
	d.Taxonomy = tax
	return nil
}

func (d *Dataset) buildCommunities(rng *rand.Rand) {
	cfg := d.Config
	d.topicUsers = make([][]string, cfg.NumTopics)
	extraBase := social.GroupID(cfg.NumTopics)
	for t := range d.topicUsers {
		users := make([]string, cfg.UsersPerTopic)
		for i := range users {
			name := fmt.Sprintf("u_t%02d_%02d", t, i)
			groups := []social.GroupID{social.GroupID(t)}
			if rng.Float64() < cfg.ExtraGroupProb {
				groups = append(groups, extraBase+social.GroupID(rng.Intn(10)))
			}
			d.Network.AddUser(name, groups)
			users[i] = name
		}
		d.topicUsers[t] = users
	}
}

// buildPalettes draws a global pool of block prototypes and gives each
// topic a palette sampled from it. Sharing the pool across topics is what
// creates the semantic gap: the same visual words appear under many topics,
// so the visual modality alone under-determines the topic, as low-level
// content features do for real photographs.
func (d *Dataset) buildPalettes(rng *rand.Rand) {
	cfg := d.Config
	pool := make([]vision.Descriptor, cfg.PrototypePool)
	for p := range pool {
		for c := range pool[p] {
			pool[p][c] = rng.Float64()
		}
	}
	d.pool = pool
	d.protos = make([][]vision.Descriptor, cfg.NumTopics)
	for t := range d.protos {
		ps := make([]vision.Descriptor, cfg.PrototypesPerTopic)
		for p := range ps {
			ps[p] = pool[rng.Intn(len(pool))]
		}
		d.protos[t] = ps
	}
}

// renderImage paints an image whose 16×16 blocks realise the given
// prototypes plus pixel noise, then the standard extraction pipeline
// recovers (noisy) descriptors from it — the full camera-to-feature path.
func (d *Dataset) renderImage(blocks []vision.Descriptor, rng *rand.Rand) *vision.Image {
	nb := d.Config.ImageBlocks
	im := vision.NewImage(nb*vision.BlockSize, nb*vision.BlockSize)
	noise := d.Config.VisualNoise
	for b, proto := range blocks {
		bx := (b % nb) * vision.BlockSize
		by := (b / nb) * vision.BlockSize
		for cy := 0; cy < 4; cy++ {
			for cx := 0; cx < 4; cx++ {
				mean := proto[cy*4+cx]
				for y := 0; y < 4; y++ {
					for x := 0; x < 4; x++ {
						im.Set(bx+cx*4+x, by+cy*4+y, mean+rng.NormFloat64()*noise)
					}
				}
			}
		}
	}
	return im
}

// sampleBlocks picks one prototype per image block: usually from the
// topic's palette, otherwise a topic-agnostic background block from the
// global pool.
func (d *Dataset) sampleBlocks(topic int, rng *rand.Rand) []vision.Descriptor {
	nb := d.Config.ImageBlocks * d.Config.ImageBlocks
	blocks := make([]vision.Descriptor, nb)
	palette := d.protos[topic]
	for i := range blocks {
		if rng.Float64() < d.Config.BackgroundBlockProb {
			blocks[i] = d.pool[rng.Intn(len(d.pool))]
		} else {
			blocks[i] = palette[rng.Intn(len(palette))]
		}
	}
	return blocks
}

func (d *Dataset) trainVisualVocabulary(rng *rand.Rand) error {
	cfg := d.Config
	var samples []vision.Descriptor
	for i := 0; i < cfg.VocabTrainImages; i++ {
		topic := rng.Intn(cfg.NumTopics)
		im := d.renderImage(d.sampleBlocks(topic, rng), rng)
		descs, err := vision.ExtractBlockDescriptors(im)
		if err != nil {
			return err
		}
		samples = append(samples, descs...)
	}
	voc, err := vision.TrainVocabularyWorkers(samples, cfg.VisualVocab, cfg.KMeansIters, rng, cfg.Workers)
	if err != nil {
		return err
	}
	d.Vocab = voc
	return nil
}

func (d *Dataset) populate(rng *rand.Rand) error {
	cfg := d.Config
	for i := 0; i < cfg.NumObjects; i++ {
		topic := rng.Intn(cfg.NumTopics)
		second := -1
		if rng.Float64() < cfg.SecondaryTopicProb {
			second = rng.Intn(cfg.NumTopics)
			if second == topic {
				second = -1
			}
		}
		month := rng.Intn(cfg.Months)
		feats, counts := d.sampleFeatures(topic, second, rng)
		o, err := d.Corpus.Add(feats, counts, month)
		if err != nil {
			return err
		}
		o.PrimaryTopic = topic
		o.Topics = []int{topic}
		if second >= 0 {
			o.Topics = append(o.Topics, second)
		}
	}
	return nil
}

// sampleFeatures draws one object's tags, users and visual words.
func (d *Dataset) sampleFeatures(topic, second int, rng *rand.Rand) ([]media.Feature, []int) {
	cfg := d.Config
	var feats []media.Feature
	var counts []int
	add := func(f media.Feature) {
		feats = append(feats, f)
		counts = append(counts, 1)
	}
	pickTopic := func() int {
		if second >= 0 && rng.Float64() < 0.3 {
			return second
		}
		return topic
	}
	// Tags.
	for n := 0; n < cfg.TagsPerObject; n++ {
		var tag string
		if rng.Float64() < cfg.NoiseTagProb {
			tag = d.noiseTags[rng.Intn(len(d.noiseTags))]
		} else {
			tt := d.topicTags[pickTopic()]
			tag = tt[rng.Intn(len(tt))]
		}
		add(media.Feature{Kind: media.Text, Name: tag})
	}
	// Users.
	for n := 0; n < cfg.UsersPerObject; n++ {
		var community []string
		if rng.Float64() < cfg.NoiseUserProb {
			community = d.topicUsers[rng.Intn(cfg.NumTopics)]
		} else {
			community = d.topicUsers[pickTopic()]
		}
		add(media.Feature{Kind: media.User, Name: community[rng.Intn(len(community))]})
	}
	// Visual words via the render→extract→quantize pipeline.
	blocks := d.sampleBlocks(topic, rng)
	if second >= 0 {
		// The secondary topic contributes roughly a third of the blocks.
		pal := d.protos[second]
		for b := range blocks {
			if rng.Float64() < 0.33 {
				blocks[b] = pal[rng.Intn(len(pal))]
			}
		}
	}
	im := d.renderImage(blocks, rng)
	descs, err := vision.ExtractBlockDescriptors(im)
	if err == nil {
		// The paper represents an image by "a group of visual words
		// contained in the image" — a set, so repeated blocks do not
		// inflate the visual mass of the object.
		seen := make(map[int]bool)
		for _, w := range d.Vocab.QuantizeAll(descs) {
			if seen[w] {
				continue
			}
			seen[w] = true
			add(media.Feature{Kind: media.Visual, Name: "vw" + strconv.Itoa(w)})
		}
	}
	return feats, counts
}

// buildFeatureMaps wires interned visual/user FIDs back to their substrate
// identities.
func (d *Dataset) buildFeatureMaps() {
	for fid := media.FID(0); int(fid) < d.Corpus.Dict.Len(); fid++ {
		f := d.Corpus.Dict.Feature(fid)
		switch f.Kind {
		case media.Visual:
			if w, err := strconv.Atoi(strings.TrimPrefix(f.Name, "vw")); err == nil {
				d.VisualWord[fid] = w
			}
		case media.Audio:
			if d.AudioWord == nil {
				d.AudioWord = make(map[media.FID]int)
			}
			if w, err := strconv.Atoi(strings.TrimPrefix(f.Name, "aw")); err == nil {
				d.AudioWord[fid] = w
			}
		case media.User:
			if uid, ok := d.Network.Lookup(f.Name); ok {
				d.UserOf[fid] = uid
			}
		}
	}
}

// Model wires the dataset's substrates into a correlation model, including
// the audio substrate for music corpora.
func (d *Dataset) Model() *corr.Model {
	stats := corr.NewStats(d.Corpus)
	m := corr.NewModel(stats, d.Taxonomy, d.Vocab, d.Network, d.VisualWord, d.UserOf)
	if d.AudioVocab != nil {
		m.SetAudio(d.AudioVocab, d.AudioWord)
	}
	return m
}

// TrainedModel is Model with the correlation thresholds trained the one
// way every binary and experiment trains them. An index snapshot only
// loads against identically trained thresholds, so what writes one
// (figdata) and what serves it (figserver) both come through here.
func (d *Dataset) TrainedModel(seed int64) *corr.Model {
	m := d.Model()
	m.TrainThresholds(200, 0.35, rand.New(rand.NewSource(seed+13)))
	return m
}

// Relevant reports whether two objects share their primary planted topic —
// the ground-truth relevance judgment standing in for the paper's human
// evaluators.
func Relevant(a, b *media.Object) bool {
	return a.PrimaryTopic >= 0 && a.PrimaryTopic == b.PrimaryTopic
}

// SampleQueries picks n distinct object IDs to use as query objects,
// mirroring the paper's "20 randomly selected images are used as query".
func (d *Dataset) SampleQueries(n int, rng *rand.Rand) []media.ObjectID {
	if n > d.Corpus.Len() {
		n = d.Corpus.Len()
	}
	perm := rng.Perm(d.Corpus.Len())
	out := make([]media.ObjectID, n)
	for i := 0; i < n; i++ {
		out[i] = media.ObjectID(perm[i])
	}
	return out
}

// Subset returns a new Dataset over the first n objects of d, sharing the
// taxonomy, visual vocabulary and user network but rebuilding the corpus
// (and with it document frequencies and feature maps). The Figure 8/9
// scalability experiments evaluate nested corpus prefixes this way, like
// the paper's 50K–236K splits of the same crawl.
func (d *Dataset) Subset(n int) (*Dataset, error) {
	if n < 1 || n > d.Corpus.Len() {
		return nil, fmt.Errorf("dataset: subset size %d out of [1, %d]", n, d.Corpus.Len())
	}
	sub := &Dataset{
		Config:     d.Config,
		Corpus:     media.NewCorpus(),
		Taxonomy:   d.Taxonomy,
		Vocab:      d.Vocab,
		Network:    d.Network,
		VisualWord: make(map[media.FID]int),
		UserOf:     make(map[media.FID]social.UserID),
		topicTags:  d.topicTags,
		topicUsers: d.topicUsers,
		protos:     d.protos,
		pool:       d.pool,
		noiseTags:  d.noiseTags,
	}
	sub.Config.NumObjects = n
	for i := 0; i < n; i++ {
		src := d.Corpus.Object(media.ObjectID(i))
		feats := make([]media.Feature, len(src.Feats))
		counts := make([]int, len(src.Feats))
		for j, fid := range src.Feats {
			feats[j] = d.Corpus.Dict.Feature(fid)
			counts[j] = int(src.Counts[j])
		}
		o, err := sub.Corpus.Add(feats, counts, src.Month)
		if err != nil {
			return nil, err
		}
		o.PrimaryTopic = src.PrimaryTopic
		o.Topics = append([]int(nil), src.Topics...)
	}
	sub.buildFeatureMaps()
	return sub, nil
}
