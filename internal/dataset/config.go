// Package dataset generates the synthetic stand-in for the paper's two
// Flickr crawls (Section 5.1.2): Dret, 236,600 "interesting" images with
// tags and users for retrieval evaluation, and Drec, the favourite histories
// of 279 users for recommendation evaluation.
//
// Real Flickr data is unavailable offline, so the generator plants a topic
// model: each topic owns a tag vocabulary (grouped under hypernyms in the
// lexicon taxonomy), a palette of visual block prototypes, and a user
// community sharing an interest group. An object drawn from a topic samples
// correlated tags, users and visual words — exactly the multi-modal
// correlation structure the FIG model exploits — plus cross-topic noise.
// The planted primary topic doubles as relevance ground truth, replacing
// the paper's three human evaluators with a deterministic judgment.
package dataset

import "fmt"

// Config controls corpus generation. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	// Seed makes generation reproducible.
	Seed int64
	// NumObjects is |D|.
	NumObjects int
	// NumTopics is the number of planted topics.
	NumTopics int
	// Months spans the corpus timeline (the paper crawls 2008.1–2008.6,
	// i.e. 6 months).
	Months int

	// TagsPerTopic is each topic's private tag vocabulary size.
	TagsPerTopic int
	// NoiseTags is the size of the shared cross-topic tag vocabulary.
	NoiseTags int
	// TagsPerObject is the mean number of tags per object.
	TagsPerObject int
	// NoiseTagProb is the probability a tag is drawn from the noise
	// vocabulary instead of the topic vocabulary.
	NoiseTagProb float64

	// UsersPerTopic is each topic community's size.
	UsersPerTopic int
	// UsersPerObject is the mean number of user features per object
	// (uploader plus favouriters).
	UsersPerObject int
	// NoiseUserProb is the probability a user comes from a random
	// community rather than the object's topic community.
	NoiseUserProb float64
	// ExtraGroupProb is the probability a user joins one extra random
	// interest group beyond the community group.
	ExtraGroupProb float64

	// PrototypesPerTopic is the number of visual block prototypes per
	// topic palette, drawn from the shared pool.
	PrototypesPerTopic int
	// PrototypePool is the size of the global prototype pool topics draw
	// their palettes from. A pool not much larger than a single palette
	// forces topics to share visual words — the "semantic gap" that makes
	// the visual feature the weakest single modality in the paper's
	// Figure 5.
	PrototypePool int
	// ImageBlocks is the number of 16×16 blocks per image side; images
	// are (16·ImageBlocks)² pixels.
	ImageBlocks int
	// VisualVocab is the k of the k-means visual vocabulary. The paper
	// uses 1022 words; scaled corpora use proportionally fewer.
	VisualVocab int
	// VisualNoise is the per-pixel noise added when rendering blocks;
	// higher values blur topic palettes together (the "semantic gap").
	VisualNoise float64
	// BackgroundBlockProb is the probability a block is drawn from the
	// global pool instead of the topic palette — skies, walls and other
	// topic-agnostic image content.
	BackgroundBlockProb float64
	// VocabTrainImages is the number of images sampled to train the
	// visual vocabulary.
	VocabTrainImages int
	// KMeansIters bounds vocabulary training.
	KMeansIters int

	// SecondaryTopicProb is the probability an object mixes in a second
	// topic (contributing some of its tags/users/blocks).
	SecondaryTopicProb float64

	// Workers bounds the fan-out of vocabulary training (0 = NumCPU,
	// mirroring retrieval.Config.Workers). Generation is deterministic at
	// any worker count.
	Workers int
}

// TopicsForScale is the corpus-shape rule every scale-derived corpus
// shares: ~40 objects per planted topic, clamped to [8, 48].
func TopicsForScale(n int) int {
	return min(max(n/40, 8), 48)
}

// DefaultConfig returns a laptop-scale configuration that preserves the
// paper's structural ratios (vocab sizes and feature densities scale with
// the corpus).
func DefaultConfig() Config {
	return Config{
		Seed:                1,
		NumObjects:          2000,
		NumTopics:           16,
		Months:              6,
		TagsPerTopic:        30,
		NoiseTags:           160,
		TagsPerObject:       6,
		NoiseTagProb:        0.3,
		UsersPerTopic:       40,
		UsersPerObject:      3,
		NoiseUserProb:       0.3,
		ExtraGroupProb:      0.3,
		PrototypesPerTopic:  3,
		PrototypePool:       10,
		ImageBlocks:         3,
		VisualVocab:         40,
		VisualNoise:         0.25,
		BackgroundBlockProb: 0.4,
		VocabTrainImages:    200,
		KMeansIters:         15,
		SecondaryTopicProb:  0.3,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumObjects < 1:
		return fmt.Errorf("dataset: NumObjects = %d", c.NumObjects)
	case c.NumTopics < 2:
		return fmt.Errorf("dataset: NumTopics = %d, need ≥ 2", c.NumTopics)
	case c.Months < 1:
		return fmt.Errorf("dataset: Months = %d", c.Months)
	case c.TagsPerTopic < 1 || c.TagsPerObject < 1:
		return fmt.Errorf("dataset: tag parameters must be positive")
	case c.UsersPerTopic < 1 || c.UsersPerObject < 1:
		return fmt.Errorf("dataset: user parameters must be positive")
	case c.PrototypesPerTopic < 1 || c.ImageBlocks < 1 || c.PrototypePool < 1:
		return fmt.Errorf("dataset: visual parameters must be positive")
	case c.VisualVocab < 2:
		return fmt.Errorf("dataset: VisualVocab = %d, need ≥ 2", c.VisualVocab)
	case c.VocabTrainImages < 1:
		return fmt.Errorf("dataset: VocabTrainImages = %d", c.VocabTrainImages)
	case c.NoiseTagProb < 0 || c.NoiseTagProb > 1 ||
		c.NoiseUserProb < 0 || c.NoiseUserProb > 1 ||
		c.ExtraGroupProb < 0 || c.ExtraGroupProb > 1 ||
		c.BackgroundBlockProb < 0 || c.BackgroundBlockProb > 1 ||
		c.SecondaryTopicProb < 0 || c.SecondaryTopicProb > 1:
		return fmt.Errorf("dataset: probabilities must be in [0,1]")
	case c.VisualNoise < 0:
		return fmt.Errorf("dataset: VisualNoise = %v", c.VisualNoise)
	}
	return nil
}
