// Package media defines the multi-modal object model of the paper
// (Section 3.1): a social media database D = {O_i} of objects
// O = ⟨T, V, U⟩ with textual, visual and user features. Features are
// interned into dense integer IDs by a Dictionary so that correlation
// tables, FIGs and inverted indexes can use compact array-backed storage at
// the paper's scale (hundreds of thousands of objects, tens of thousands of
// feature dimensions).
package media

import (
	"fmt"
	"math"
	"sort"
)

// Kind is the modality of a feature.
type Kind uint8

// The feature modalities. Text, Visual and User are the three types the
// paper extracts from Flickr objects; Audio realises the paper's claim that
// the solution "can be easily extended to facilitate other social media
// environments, such as video and music" for music corpora.
const (
	Text   Kind = iota // tags, titles (after textproc normalisation)
	Visual             // visual words (vision.Vocabulary indices)
	User               // uploaders and users who favourited the object
	Audio              // audio words (audio.Vocabulary indices)
	numKinds
)

// NumKinds is the number of feature modalities.
const NumKinds = int(numKinds)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Text:
		return "text"
	case Visual:
		return "visual"
	case User:
		return "user"
	case Audio:
		return "audio"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Feature is a single modality-qualified feature, e.g. {Text, "hamster"},
// {Visual, "vw17"} or {User, "u42"}.
type Feature struct {
	Kind Kind
	Name string
}

// String implements fmt.Stringer.
func (f Feature) String() string { return f.Kind.String() + ":" + f.Name }

// FID is an interned feature identifier, dense from 0.
type FID int32

// ObjectID identifies an object within a Corpus, dense from 0.
type ObjectID int32

// Dictionary interns Features to FIDs. Interning is append-only; lookups
// are safe for concurrent use once population stops.
type Dictionary struct {
	feats []Feature
	ids   map[Feature]FID
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: make(map[Feature]FID)}
}

// Intern returns the FID for f, assigning a new one if needed.
func (d *Dictionary) Intern(f Feature) FID {
	if id, ok := d.ids[f]; ok {
		return id
	}
	id := FID(len(d.feats))
	d.feats = append(d.feats, f)
	d.ids[f] = id
	return id
}

// Lookup returns the FID for f without interning.
func (d *Dictionary) Lookup(f Feature) (FID, bool) {
	id, ok := d.ids[f]
	return id, ok
}

// Feature returns the Feature for an FID.
func (d *Dictionary) Feature(id FID) Feature { return d.feats[id] }

// Len returns the number of interned features.
func (d *Dictionary) Len() int { return len(d.feats) }

// FeatureCount is one feature occurrence count inside an object.
type FeatureCount struct {
	FID   FID
	Count uint16
}

// ClampCount saturates a caller-supplied count into [1, 65535]: the
// one conversion from an int count to the stored uint16, shared by
// Corpus.Add and query resolution so that no count wraps.
func ClampCount(n int) uint16 {
	if n < 1 {
		return 1
	}
	if n > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(n)
}

// Object is one multi-modal media object. Feats is sorted by FID and free of
// duplicates; Counts runs parallel to Feats. Month is the object's timestamp
// at the paper's month granularity (months since an arbitrary epoch;
// Section 4 determines all time stamps "in the basis of month").
// PrimaryTopic and Topics carry the planted ground-truth labels of the
// synthetic corpus; they stand in for the paper's human relevance judgments
// and are never visible to the retrieval model itself.
type Object struct {
	ID           ObjectID
	Feats        []FID
	Counts       []uint16
	Month        int
	PrimaryTopic int
	Topics       []int
}

// NewObject builds an object from possibly unsorted, possibly duplicated
// feature counts: duplicates are merged by summing counts.
func NewObject(id ObjectID, fcs []FeatureCount, month int) *Object {
	merged := make(map[FID]uint32, len(fcs))
	for _, fc := range fcs {
		merged[fc.FID] += uint32(fc.Count)
	}
	o := &Object{
		ID:           id,
		Feats:        make([]FID, 0, len(merged)),
		Counts:       make([]uint16, 0, len(merged)),
		Month:        month,
		PrimaryTopic: -1,
	}
	for fid := range merged {
		o.Feats = append(o.Feats, fid)
	}
	sort.Slice(o.Feats, func(i, j int) bool { return o.Feats[i] < o.Feats[j] })
	for _, fid := range o.Feats {
		c := merged[fid]
		if c > 65535 {
			c = 65535
		}
		o.Counts = append(o.Counts, uint16(c))
	}
	return o
}

// Len returns the number of distinct features in the object.
func (o *Object) Len() int { return len(o.Feats) }

// TotalCount returns |O_i|: the total feature occurrence mass of the
// object, the denominator of the frequency term in Eq. 7.
func (o *Object) TotalCount() int {
	total := 0
	for _, c := range o.Counts {
		total += int(c)
	}
	return total
}

// Count returns the occurrence count of fid in the object (0 if absent).
func (o *Object) Count(fid FID) int {
	i := sort.Search(len(o.Feats), func(i int) bool { return o.Feats[i] >= fid })
	if i < len(o.Feats) && o.Feats[i] == fid {
		return int(o.Counts[i])
	}
	return 0
}

// Has reports whether the object contains the feature.
func (o *Object) Has(fid FID) bool { return o.Count(fid) > 0 }

// Corpus is the social media database D plus its feature dictionary.
// Population is single-goroutine; reads are safe for concurrent use once
// population stops.
type Corpus struct {
	Dict    *Dictionary
	Objects []*Object

	docFreq []int32 // FID -> number of objects containing it
}

// NewCorpus returns an empty corpus with a fresh dictionary.
func NewCorpus() *Corpus {
	return &Corpus{Dict: NewDictionary()}
}

// ValidateFeatures is the check Add starts with: at least one feature, one
// count per feature, every count ≥ 1. It mutates nothing, so a caller that
// must know an Add will succeed before it commits elsewhere (the cluster's
// owner-first insert) applies the same rules.
func ValidateFeatures(feats []Feature, counts []int) error {
	if len(feats) == 0 {
		return fmt.Errorf("media: object needs at least one feature")
	}
	if len(feats) != len(counts) {
		return fmt.Errorf("media: %d features but %d counts", len(feats), len(counts))
	}
	for i, n := range counts {
		if n <= 0 {
			return fmt.Errorf("media: non-positive count %d for %v", n, feats[i])
		}
	}
	return nil
}

// Add appends an object built from features and returns it. The caller
// provides raw Features; Add interns them and merges duplicates. A
// rejected Add leaves the corpus and its dictionary untouched.
func (c *Corpus) Add(feats []Feature, counts []int, month int) (*Object, error) {
	if err := ValidateFeatures(feats, counts); err != nil {
		return nil, err
	}
	fcs := make([]FeatureCount, len(feats))
	for i, f := range feats {
		fcs[i] = FeatureCount{FID: c.Dict.Intern(f), Count: ClampCount(counts[i])}
	}
	o := NewObject(ObjectID(len(c.Objects)), fcs, month)
	c.Objects = append(c.Objects, o)
	c.accountDocFreq(o)
	return o, nil
}

// AddObject appends a pre-built object, reassigning its ID to keep IDs
// dense. The object's FIDs must already belong to c.Dict.
func (c *Corpus) AddObject(o *Object) *Object {
	o.ID = ObjectID(len(c.Objects))
	c.Objects = append(c.Objects, o)
	c.accountDocFreq(o)
	return o
}

func (c *Corpus) accountDocFreq(o *Object) {
	for _, fid := range o.Feats {
		for int(fid) >= len(c.docFreq) {
			c.docFreq = append(c.docFreq, 0)
		}
		c.docFreq[fid]++
	}
}

// Len returns |D|.
func (c *Corpus) Len() int { return len(c.Objects) }

// Object returns the object with the given ID.
func (c *Corpus) Object(id ObjectID) *Object { return c.Objects[id] }

// DocFreq returns the number of objects containing fid.
func (c *Corpus) DocFreq(fid FID) int {
	if int(fid) >= len(c.docFreq) {
		return 0
	}
	return int(c.docFreq[fid])
}

// KindOf returns the modality of an interned feature.
func (c *Corpus) KindOf(fid FID) Kind { return c.Dict.Feature(fid).Kind }

// PruneRareFeatures returns the set of FIDs whose document frequency is at
// least minDF. The paper eliminates tags with corpus frequency below 5 as
// noise or typos (Section 5.1.3); retrieval components consult this set to
// skip pruned features.
func (c *Corpus) PruneRareFeatures(minDF int) map[FID]bool {
	kept := make(map[FID]bool)
	for fid, df := range c.docFreq {
		if int(df) >= minDF {
			kept[FID(fid)] = true
		}
	}
	return kept
}

// UnionObject merges several objects into one "big object" by unioning
// their features and summing counts — the naive profile construction of
// Section 4 ("H_u = ⟨∪T_j, ∪V_j, ∪U_j⟩") that the baseline systems use for
// recommendation. The result carries the given ID and the latest month of
// the inputs (or 0 when empty); topic labels are not merged.
func UnionObject(id ObjectID, objects []*Object) *Object {
	var fcs []FeatureCount
	month := 0
	for _, o := range objects {
		if o.Month > month {
			month = o.Month
		}
		for i, fid := range o.Feats {
			fcs = append(fcs, FeatureCount{FID: fid, Count: o.Counts[i]})
		}
	}
	return NewObject(id, fcs, month)
}
