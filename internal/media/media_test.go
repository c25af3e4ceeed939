package media

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	for _, tt := range []struct {
		k    Kind
		want string
	}{
		{Text, "text"}, {Visual, "visual"}, {User, "user"}, {Kind(9), "Kind(9)"},
	} {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestFeatureString(t *testing.T) {
	f := Feature{Text, "hamster"}
	if got := f.String(); got != "text:hamster" {
		t.Errorf("String = %q", got)
	}
}

func TestDictionaryIntern(t *testing.T) {
	d := NewDictionary()
	a := d.Intern(Feature{Text, "cat"})
	b := d.Intern(Feature{Text, "dog"})
	again := d.Intern(Feature{Text, "cat"})
	if a == b {
		t.Error("distinct features got same FID")
	}
	if a != again {
		t.Error("re-interning changed FID")
	}
	// Same name, different kind is a different feature.
	u := d.Intern(Feature{User, "cat"})
	if u == a {
		t.Error("kinds must be distinguished")
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
	if got := d.Feature(a); got != (Feature{Text, "cat"}) {
		t.Errorf("Feature(a) = %v", got)
	}
	if id, ok := d.Lookup(Feature{Text, "dog"}); !ok || id != b {
		t.Errorf("Lookup = %v,%v", id, ok)
	}
	if _, ok := d.Lookup(Feature{Visual, "vw1"}); ok {
		t.Error("Lookup of unknown feature should miss")
	}
}

func TestNewObjectMergesAndSorts(t *testing.T) {
	o := NewObject(7, []FeatureCount{
		{FID: 5, Count: 2}, {FID: 1, Count: 1}, {FID: 5, Count: 3},
	}, 12)
	if o.ID != 7 || o.Month != 12 {
		t.Errorf("ID/Month = %d/%d", o.ID, o.Month)
	}
	if o.Len() != 2 {
		t.Fatalf("Len = %d, want 2", o.Len())
	}
	if !sort.SliceIsSorted(o.Feats, func(i, j int) bool { return o.Feats[i] < o.Feats[j] }) {
		t.Error("Feats not sorted")
	}
	if o.Count(5) != 5 {
		t.Errorf("Count(5) = %d, want 5 (merged)", o.Count(5))
	}
	if o.Count(1) != 1 {
		t.Errorf("Count(1) = %d, want 1", o.Count(1))
	}
	if o.Count(99) != 0 || o.Has(99) {
		t.Error("absent feature should count 0")
	}
	if o.TotalCount() != 6 {
		t.Errorf("TotalCount = %d, want 6", o.TotalCount())
	}
	if o.PrimaryTopic != -1 {
		t.Errorf("PrimaryTopic default = %d, want -1", o.PrimaryTopic)
	}
}

func TestNewObjectCountSaturation(t *testing.T) {
	o := NewObject(0, []FeatureCount{
		{FID: 1, Count: 65535}, {FID: 1, Count: 10},
	}, 0)
	if o.Count(1) != 65535 {
		t.Errorf("Count = %d, want saturation at 65535", o.Count(1))
	}
}

func TestCorpusAdd(t *testing.T) {
	c := NewCorpus()
	o1, err := c.Add(
		[]Feature{{Text, "cat"}, {User, "u1"}},
		[]int{2, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := c.Add(
		[]Feature{{Text, "cat"}, {Text, "dog"}},
		[]int{1, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if o1.ID != 0 || o2.ID != 1 {
		t.Errorf("IDs = %d,%d", o1.ID, o2.ID)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	cat, _ := c.Dict.Lookup(Feature{Text, "cat"})
	dog, _ := c.Dict.Lookup(Feature{Text, "dog"})
	if c.DocFreq(cat) != 2 {
		t.Errorf("DocFreq(cat) = %d, want 2", c.DocFreq(cat))
	}
	if c.DocFreq(dog) != 1 {
		t.Errorf("DocFreq(dog) = %d, want 1", c.DocFreq(dog))
	}
	if c.DocFreq(FID(999)) != 0 {
		t.Error("DocFreq of unknown FID should be 0")
	}
	if got := c.Object(1); got != o2 {
		t.Error("Object(1) mismatch")
	}
	if c.KindOf(cat) != Text {
		t.Errorf("KindOf(cat) = %v", c.KindOf(cat))
	}
}

func TestCorpusAddValidation(t *testing.T) {
	c := NewCorpus()
	if _, err := c.Add([]Feature{{Text, "a"}}, []int{1, 2}, 0); err == nil {
		t.Error("want error on length mismatch")
	}
	if _, err := c.Add([]Feature{{Text, "a"}}, []int{0}, 0); err == nil {
		t.Error("want error on zero count")
	}
	if _, err := c.Add([]Feature{{Text, "a"}}, []int{-1}, 0); err == nil {
		t.Error("want error on negative count")
	}
	if _, err := c.Add(nil, nil, 0); err == nil {
		t.Error("want error on an object without features")
	}
	// A rejected Add mutates nothing: the valid feature ahead of the bad
	// count must not reach the dictionary.
	if _, err := c.Add([]Feature{{Text, "brandnew"}, {Text, "x"}}, []int{1, 0}, 0); err == nil {
		t.Error("want error on a zero count after a valid feature")
	}
	if c.Dict.Len() != 0 || c.Len() != 0 {
		t.Errorf("rejected Adds left %d features and %d objects behind, want 0 and 0", c.Dict.Len(), c.Len())
	}
}

func TestCorpusAddObjectReassignsID(t *testing.T) {
	c := NewCorpus()
	fid := c.Dict.Intern(Feature{Text, "x"})
	o := NewObject(99, []FeatureCount{{FID: fid, Count: 1}}, 0)
	added := c.AddObject(o)
	if added.ID != 0 {
		t.Errorf("ID = %d, want 0", added.ID)
	}
	if c.DocFreq(fid) != 1 {
		t.Errorf("DocFreq = %d, want 1", c.DocFreq(fid))
	}
}

func TestPruneRareFeatures(t *testing.T) {
	c := NewCorpus()
	for i := 0; i < 5; i++ {
		if _, err := c.Add([]Feature{{Text, "common"}}, []int{1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Add([]Feature{{Text, "rare"}}, []int{1}, 0); err != nil {
		t.Fatal(err)
	}
	kept := c.PruneRareFeatures(5)
	common, _ := c.Dict.Lookup(Feature{Text, "common"})
	rare, _ := c.Dict.Lookup(Feature{Text, "rare"})
	if !kept[common] {
		t.Error("common feature should be kept")
	}
	if kept[rare] {
		t.Error("rare feature should be pruned")
	}
}

func TestObjectCountProperty(t *testing.T) {
	// For any multiset of feature counts, TotalCount equals the sum of
	// Count over distinct features, and Has agrees with Count>0.
	f := func(raw []uint8) bool {
		fcs := make([]FeatureCount, len(raw))
		for i, r := range raw {
			fcs[i] = FeatureCount{FID: FID(r % 16), Count: uint16(r%7) + 1}
		}
		o := NewObject(0, fcs, 0)
		sum := 0
		for fid := FID(0); fid < 16; fid++ {
			cnt := o.Count(fid)
			if o.Has(fid) != (cnt > 0) {
				return false
			}
			sum += cnt
		}
		return sum == o.TotalCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkObjectCount(b *testing.B) {
	fcs := make([]FeatureCount, 100)
	for i := range fcs {
		fcs[i] = FeatureCount{FID: FID(i * 3), Count: 1}
	}
	o := NewObject(0, fcs, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Count(FID(i % 300))
	}
}

func BenchmarkDictionaryIntern(b *testing.B) {
	d := NewDictionary()
	feats := make([]Feature, 1000)
	for i := range feats {
		feats[i] = Feature{Kind(i % 3), string(rune('a' + i%26))}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Intern(feats[i%len(feats)])
	}
}

func TestUnionObject(t *testing.T) {
	a := NewObject(0, []FeatureCount{{FID: 1, Count: 2}, {FID: 2, Count: 1}}, 3)
	b := NewObject(1, []FeatureCount{{FID: 2, Count: 4}, {FID: 5, Count: 1}}, 5)
	u := UnionObject(9, []*Object{a, b})
	if u.ID != 9 || u.Month != 5 {
		t.Errorf("ID/Month = %d/%d", u.ID, u.Month)
	}
	if u.Count(1) != 2 || u.Count(2) != 5 || u.Count(5) != 1 {
		t.Errorf("counts wrong: %v %v", u.Feats, u.Counts)
	}
	if got := UnionObject(0, nil); got.Len() != 0 || got.Month != 0 {
		t.Errorf("empty union = %v", got)
	}
}
