package api_test

import (
	"encoding/json"
	"math"
	"testing"

	"figfusion/internal/api"
	"figfusion/internal/media"
)

// wireCorpus is a three-object corpus whose vocabulary the fuzz seeds name.
func wireCorpus(t testing.TB) *media.Corpus {
	c := media.NewCorpus()
	objs := []struct {
		feats  []media.Feature
		counts []int
	}{
		{[]media.Feature{{Kind: media.Text, Name: "cat"}, {Kind: media.User, Name: "u1"}}, []int{2, 1}},
		{[]media.Feature{{Kind: media.Text, Name: "dog"}, {Kind: media.Visual, Name: "v7"}}, []int{1, 3}},
		{[]media.Feature{{Kind: media.Text, Name: "cat"}, {Kind: media.Audio, Name: "a2"}}, []int{1, 1}},
	}
	for _, o := range objs {
		if _, err := c.Add(o.feats, o.counts, 0); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// checkObject asserts the shape every stored or resolved object has:
// strictly ascending FIDs, one count per FID, every count ≥ 1.
func checkObject(t *testing.T, o *media.Object) {
	t.Helper()
	if len(o.Counts) != len(o.Feats) {
		t.Fatalf("%d FIDs but %d counts", len(o.Feats), len(o.Counts))
	}
	for i, fid := range o.Feats {
		if i > 0 && fid <= o.Feats[i-1] {
			t.Fatalf("FIDs not strictly ascending: %v", o.Feats)
		}
		if o.Counts[i] < 1 {
			t.Fatalf("feature %d has count %d", fid, o.Counts[i])
		}
	}
}

// A count above the uint16 range saturates, on insert and in a query alike,
// instead of wrapping (65536 used to resolve to a zero-count query feature).
func TestOversizedCountClampsEverywhere(t *testing.T) {
	c := wireCorpus(t)
	feats, counts, err := api.DecodeFeatures([]api.Feature{{Kind: "text", Name: "big", Count: 65536}})
	if err != nil {
		t.Fatal(err)
	}
	o, err := c.Add(feats, counts, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := api.ResolveQuery(c, &api.SearchRequest{Features: []api.Feature{{Kind: "text", Name: "big", Count: 65536}}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Counts[0] != math.MaxUint16 || q.Counts[0] != math.MaxUint16 {
		t.Fatalf("inserted count %d, resolved query count %d; want both %d", o.Counts[0], q.Counts[0], math.MaxUint16)
	}
}

// FuzzResolveQuery resolves each fuzz input as all three POST /v1/search
// query forms — by ID, by text, by features — against a small corpus: it
// never panics, and whatever it resolves is a well-formed object. The
// feature form pairs the fuzzed feature with a known one at the same
// count, so every input reaches the count conversion.
func FuzzResolveQuery(f *testing.F) {
	f.Add(int64(1), "cat dogs", "text", "cat", 2, 0)
	f.Add(int64(-1), "", "user", "u1", 1, 3)
	f.Add(int64(3), "CATS!", "bogus", "x", 0, -1)
	f.Add(int64(0), "zebra", "audio", "a2", -4, 13)
	f.Add(int64(2), "dog", "visual", "nope", 65536, 0)
	c := wireCorpus(f)
	f.Fuzz(func(t *testing.T, id int64, text, kind, name string, count, month int) {
		feats := []api.Feature{{Kind: kind, Name: name, Count: count}, {Kind: "text", Name: "cat", Count: count}}
		for _, req := range []api.SearchRequest{{ID: &id}, {Text: text}, {Features: feats, Month: month}} {
			if q, err := api.ResolveQuery(c, &req); err == nil {
				checkObject(t, q)
			}
		}
	})
}

// FuzzDecodeFeatures feeds arbitrary POST /v1/objects feature lists through
// DecodeFeatures: it never panics, media.ValidateFeatures judges whatever
// it accepts, and an insert that passes validation stores a well-formed
// object.
func FuzzDecodeFeatures(f *testing.F) {
	for _, seed := range []string{
		`[{"kind":"text","name":"cat","count":1}]`,
		`[]`,
		`[{"kind":"text","name":"cat","count":0}]`,
		`[{"kind":"user","name":"u9","count":70000},{"kind":"user","name":"u9","count":70000}]`,
		`[{"kind":"visual","name":"","count":-1}]`,
		`[{"kind":"sound","name":"x","count":1}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var wire []api.Feature
		if json.Unmarshal(body, &wire) != nil {
			return
		}
		feats, counts, err := api.DecodeFeatures(wire)
		if err != nil {
			return
		}
		if len(feats) != len(wire) || len(counts) != len(wire) {
			t.Fatalf("decoded %d features and %d counts from %d wire features", len(feats), len(counts), len(wire))
		}
		if media.ValidateFeatures(feats, counts) != nil {
			return
		}
		o, err := media.NewCorpus().Add(feats, counts, 0)
		if err != nil {
			t.Fatalf("Add rejected what ValidateFeatures accepted: %v", err)
		}
		checkObject(t, o)
	})
}
