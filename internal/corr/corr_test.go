package corr

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"figfusion/internal/lexicon"
	"figfusion/internal/media"
	"figfusion/internal/social"
	"figfusion/internal/vision"
)

// buildTinyCorpus constructs a 4-object corpus with known co-occurrence:
//
//	o0: cat(2), dog(1), u1(1)
//	o1: cat(1), u1(1)
//	o2: dog(2), u2(1)
//	o3: car(1), u2(1)
func buildTinyCorpus(t testing.TB) (*media.Corpus, map[string]media.FID) {
	t.Helper()
	c := media.NewCorpus()
	add := func(feats []media.Feature, counts []int) {
		t.Helper()
		if _, err := c.Add(feats, counts, 0); err != nil {
			t.Fatal(err)
		}
	}
	tf := func(n string) media.Feature { return media.Feature{Kind: media.Text, Name: n} }
	uf := func(n string) media.Feature { return media.Feature{Kind: media.User, Name: n} }
	add([]media.Feature{tf("cat"), tf("dog"), uf("u1")}, []int{2, 1, 1})
	add([]media.Feature{tf("cat"), uf("u1")}, []int{1, 1})
	add([]media.Feature{tf("dog"), uf("u2")}, []int{2, 1})
	add([]media.Feature{tf("car"), uf("u2")}, []int{1, 1})
	ids := make(map[string]media.FID)
	for _, name := range []string{"cat", "dog", "car"} {
		id, ok := c.Dict.Lookup(tf(name))
		if !ok {
			t.Fatalf("missing %s", name)
		}
		ids[name] = id
	}
	for _, name := range []string{"u1", "u2"} {
		id, ok := c.Dict.Lookup(uf(name))
		if !ok {
			t.Fatalf("missing %s", name)
		}
		ids[name] = id
	}
	return c, ids
}

func TestStatsMoments(t *testing.T) {
	c, ids := buildTinyCorpus(t)
	s := NewStats(c)
	cat := ids["cat"]
	// cat counts: [2,1,0,0] → Σ=3, Σ²=5, mean=0.75, var=5/4−0.5625=0.6875
	if got := s.Mean(cat); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Mean = %v, want 0.75", got)
	}
	if got := s.Variance(cat); math.Abs(got-0.6875) > 1e-12 {
		t.Errorf("Variance = %v, want 0.6875", got)
	}
	if got := s.Norm(cat); math.Abs(got-math.Sqrt(5)) > 1e-12 {
		t.Errorf("Norm = %v, want sqrt(5)", got)
	}
	if got := len(s.Postings(cat)); got != 2 {
		t.Errorf("Postings len = %d, want 2", got)
	}
	if got := s.Postings(media.FID(999)); got != nil {
		t.Errorf("Postings of unknown FID = %v, want nil", got)
	}
}

func TestStatsDotAndCosine(t *testing.T) {
	c, ids := buildTinyCorpus(t)
	s := NewStats(c)
	cat, dog, car, u1 := ids["cat"], ids["dog"], ids["car"], ids["u1"]
	// cat·dog: only o0 → 2*1 = 2.
	if got := s.Dot(cat, dog); got != 2 {
		t.Errorf("Dot(cat,dog) = %v, want 2", got)
	}
	// cosine = 2 / (sqrt(5)*sqrt(5)) = 0.4 (dog: [1,0,2,0] → Σ²=5)
	if got := s.Cosine(cat, dog); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Cosine(cat,dog) = %v, want 0.4", got)
	}
	// cat and car never co-occur.
	if got := s.Cosine(cat, car); got != 0 {
		t.Errorf("Cosine(cat,car) = %v, want 0", got)
	}
	// cat·u1 = 2*1 + 1*1 = 3 → cosine = 3/(sqrt(5)*sqrt(2))
	want := 3 / (math.Sqrt(5) * math.Sqrt(2))
	if got := s.Cosine(cat, u1); math.Abs(got-want) > 1e-12 {
		t.Errorf("Cosine(cat,u1) = %v, want %v", got, want)
	}
	// Symmetry.
	if s.Cosine(cat, dog) != s.Cosine(dog, cat) {
		t.Error("Cosine not symmetric")
	}
}

func TestCorSPair(t *testing.T) {
	c, ids := buildTinyCorpus(t)
	s := NewStats(c)
	cat, dog := ids["cat"], ids["dog"]
	// Manual CorS for cat=[2,1,0,0], dog=[1,0,2,0]:
	// means .75/.75; var cat 0.6875; dog: Σ=3, Σ²=5 → same.
	sd := math.Sqrt(0.6875)
	want := 0.0
	catV := []float64{2, 1, 0, 0}
	dogV := []float64{1, 0, 2, 0}
	for i := range catV {
		want += (catV[i] - 0.75) / sd * (dogV[i] - 0.75) / sd
	}
	if got := s.CorS([]media.FID{cat, dog}); math.Abs(got-want) > 1e-9 {
		t.Errorf("CorS = %v, want %v", got, want)
	}
}

func TestCorSTriple(t *testing.T) {
	c, ids := buildTinyCorpus(t)
	s := NewStats(c)
	fids := []media.FID{ids["cat"], ids["dog"], ids["u1"]}
	// Brute-force reference over all objects.
	want := bruteCorS(s, fids)
	if got := s.CorS(fids); math.Abs(got-want) > 1e-9 {
		t.Errorf("CorS = %v, want %v", got, want)
	}
}

// bruteCorS computes Eq. 8 by the definition, iterating every object.
func bruteCorS(s *Stats, fids []media.FID) float64 {
	corpus := s.Corpus()
	var sum float64
	for _, o := range corpus.Objects {
		term := 1.0
		for _, fid := range fids {
			term *= (float64(o.Count(fid)) - s.Mean(fid)) / math.Sqrt(s.Variance(fid))
		}
		sum += term
	}
	return sum
}

func TestCorSMatchesBruteForceProperty(t *testing.T) {
	// Random corpora: union+correction must equal the full-scan definition.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := media.NewCorpus()
		nObj := 3 + rng.Intn(10)
		vocab := []string{"a", "b", "c", "d", "e"}
		for i := 0; i < nObj; i++ {
			var feats []media.Feature
			var counts []int
			for _, w := range vocab {
				if rng.Float64() < 0.5 {
					feats = append(feats, media.Feature{Kind: media.Text, Name: w})
					counts = append(counts, 1+rng.Intn(3))
				}
			}
			if len(feats) == 0 {
				feats = append(feats, media.Feature{Kind: media.Text, Name: "a"})
				counts = append(counts, 1)
			}
			if _, err := c.Add(feats, counts, 0); err != nil {
				return false
			}
		}
		s := NewStats(c)
		var fids []media.FID
		for _, w := range vocab {
			if id, ok := c.Dict.Lookup(media.Feature{Kind: media.Text, Name: w}); ok {
				fids = append(fids, id)
			}
		}
		if len(fids) < 2 {
			return true
		}
		k := 2 + rng.Intn(3)
		if k > len(fids) {
			k = len(fids)
		}
		pick := fids[:k]
		got := s.CorS(pick)
		want := bruteCorS(s, pick)
		if math.IsNaN(want) || math.IsInf(want, 0) {
			return true // constant feature; CorS returns 0 by contract
		}
		return math.Abs(got-want) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCorSSingletonAndDegenerate(t *testing.T) {
	c, ids := buildTinyCorpus(t)
	s := NewStats(c)
	if got := s.CorS([]media.FID{ids["cat"]}); got != 1 {
		t.Errorf("singleton CorS = %v, want 1", got)
	}
	if got := s.CorS(nil); got != 1 {
		t.Errorf("empty CorS = %v, want 1", got)
	}
	// A feature present in every object with the same count has zero
	// variance → CorS 0.
	c2 := media.NewCorpus()
	for i := 0; i < 3; i++ {
		if _, err := c2.Add([]media.Feature{{Kind: media.Text, Name: "const"}, {Kind: media.Text, Name: "x"}},
			[]int{1, 1 + i%2}, 0); err != nil {
			t.Fatal(err)
		}
	}
	s2 := NewStats(c2)
	cf, _ := c2.Dict.Lookup(media.Feature{Kind: media.Text, Name: "const"})
	xf, _ := c2.Dict.Lookup(media.Feature{Kind: media.Text, Name: "x"})
	if got := s2.CorS([]media.FID{cf, xf}); got != 0 {
		t.Errorf("CorS with constant feature = %v, want 0", got)
	}
}

func buildModel(t testing.TB) (*Model, map[string]media.FID) {
	t.Helper()
	c, ids := buildTinyCorpus(t)
	s := NewStats(c)
	tax, err := lexicon.Generate([]lexicon.TopicGroup{
		{Name: "animal", Domain: "living", Words: []string{"cat", "dog"}},
		{Name: "vehicle", Domain: "artifact", Words: []string{"car"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := social.NewNetwork()
	u1 := net.AddUser("u1", []social.GroupID{1})
	u2 := net.AddUser("u2", []social.GroupID{2})
	userOf := map[media.FID]social.UserID{ids["u1"]: u1, ids["u2"]: u2}
	m := NewModel(s, tax, nil, net, nil, userOf)
	return m, ids
}

func TestModelCorDispatch(t *testing.T) {
	m, ids := buildModel(t)
	// Text×Text uses WUP: cat/dog share "animal" → 0.75.
	if got := m.Cor(ids["cat"], ids["dog"]); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Cor(cat,dog) = %v, want WUP 0.75", got)
	}
	// cat vs car meet at root → 0.25 by WUP, NOT cosine 0.
	if got := m.Cor(ids["cat"], ids["car"]); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Cor(cat,car) = %v, want WUP 0.25", got)
	}
	// User×User uses group similarity: disjoint groups → 0.
	if got := m.Cor(ids["u1"], ids["u2"]); got != 0 {
		t.Errorf("Cor(u1,u2) = %v, want 0", got)
	}
	// Inter-type falls back to cosine.
	want := 3 / (math.Sqrt(5) * math.Sqrt(2))
	if got := m.Cor(ids["cat"], ids["u1"]); math.Abs(got-want) > 1e-12 {
		t.Errorf("Cor(cat,u1) = %v, want cosine %v", got, want)
	}
	// Identity.
	if got := m.Cor(ids["cat"], ids["cat"]); got != 1 {
		t.Errorf("Cor(x,x) = %v, want 1", got)
	}
}

func TestModelCorrelated(t *testing.T) {
	m, ids := buildModel(t)
	// Default text threshold 0.6: cat-dog (0.75) edge, cat-car (0.25) no.
	if !m.Correlated(ids["cat"], ids["dog"]) {
		t.Error("cat-dog should be correlated")
	}
	if m.Correlated(ids["cat"], ids["car"]) {
		t.Error("cat-car should not be correlated")
	}
	if m.Correlated(ids["cat"], ids["cat"]) {
		t.Error("no self loops")
	}
}

func TestModelVisualDispatch(t *testing.T) {
	c := media.NewCorpus()
	v0 := media.Feature{Kind: media.Visual, Name: "vw0"}
	v1 := media.Feature{Kind: media.Visual, Name: "vw1"}
	if _, err := c.Add([]media.Feature{v0, v1}, []int{1, 1}, 0); err != nil {
		t.Fatal(err)
	}
	s := NewStats(c)
	var c0, c1 vision.Descriptor
	c1[0] = 3 // distance 3 → similarity 0.25
	voc := &vision.Vocabulary{Centroids: []vision.Descriptor{c0, c1}}
	f0, _ := c.Dict.Lookup(v0)
	f1, _ := c.Dict.Lookup(v1)
	m := NewModel(s, nil, voc, nil, map[media.FID]int{f0: 0, f1: 1}, nil)
	if got := m.Cor(f0, f1); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("visual Cor = %v, want 0.25", got)
	}
}

func TestModelFallsBackToCosineWithoutSubstrates(t *testing.T) {
	c, ids := buildTinyCorpus(t)
	s := NewStats(c)
	m := NewModel(s, nil, nil, nil, nil, nil)
	// Without a taxonomy, text×text uses cosine: cat-dog co-occur once.
	if got := m.Cor(ids["cat"], ids["dog"]); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Cor = %v, want cosine 0.4", got)
	}
}

func TestModelCosineCache(t *testing.T) {
	c, ids := buildTinyCorpus(t)
	m := NewModel(NewStats(c), nil, nil, nil, nil, nil)
	a := m.Cor(ids["cat"], ids["u1"])
	b := m.Cor(ids["u1"], ids["cat"]) // the pair store holds one row entry per pair
	if a != b {
		t.Errorf("cosine asymmetric: %v vs %v", a, b)
	}
}

func TestTrainThresholds(t *testing.T) {
	m, _ := buildModel(t)
	rng := rand.New(rand.NewSource(42))
	before := m.Thresholds
	m.TrainThresholds(100, 0.5, rng)
	// Text threshold must have moved to a sampled WUP value.
	if m.Thresholds[media.Text][media.Text] == before[media.Text][media.Text] &&
		m.Thresholds[media.Text][media.User] == before[media.Text][media.User] {
		t.Error("training did not update any threshold")
	}
	// Thresholds stay within the similarity range.
	for a := 0; a < media.NumKinds; a++ {
		for b := 0; b < media.NumKinds; b++ {
			if th := m.Thresholds[a][b]; th < 0 || th > 1 {
				t.Errorf("threshold[%d][%d] = %v out of range", a, b, th)
			}
		}
	}
}

func TestTrainThresholdsNoSamplesKeepsDefaults(t *testing.T) {
	c := media.NewCorpus()
	m := NewModel(NewStats(c), nil, nil, nil, nil, nil)
	want := m.Thresholds
	m.TrainThresholds(10, 0.5, rand.New(rand.NewSource(1)))
	if m.Thresholds != want {
		t.Error("thresholds changed on empty corpus")
	}
}

func BenchmarkCosine(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	c := media.NewCorpus()
	vocab := make([]media.Feature, 50)
	for i := range vocab {
		vocab[i] = media.Feature{Kind: media.Text, Name: string(rune('a'+i%26)) + string(rune('a'+i/26))}
	}
	for i := 0; i < 2000; i++ {
		var feats []media.Feature
		var counts []int
		for _, f := range vocab {
			if rng.Float64() < 0.2 {
				feats = append(feats, f)
				counts = append(counts, 1)
			}
		}
		if len(feats) == 0 {
			continue
		}
		if _, err := c.Add(feats, counts, 0); err != nil {
			b.Fatal(err)
		}
	}
	s := NewStats(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cosine(media.FID(i%50), media.FID((i+13)%50))
	}
}

func BenchmarkCorS3(b *testing.B) {
	c, ids := buildTinyCorpus(b)
	s := NewStats(c)
	fids := []media.FID{ids["cat"], ids["dog"], ids["u1"]}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.CorS(fids)
	}
}

func TestTrainThresholdsSymmetric(t *testing.T) {
	m, _ := buildModel(t)
	m.TrainThresholds(200, 0.4, rand.New(rand.NewSource(6)))
	for a := 0; a < media.NumKinds; a++ {
		for b := 0; b < media.NumKinds; b++ {
			if m.Thresholds[a][b] != m.Thresholds[b][a] {
				t.Errorf("thresholds asymmetric at (%d,%d): %v vs %v",
					a, b, m.Thresholds[a][b], m.Thresholds[b][a])
			}
		}
	}
}

func TestCorrelatedSymmetric(t *testing.T) {
	m, ids := buildModel(t)
	names := []string{"cat", "dog", "car", "u1", "u2"}
	for _, a := range names {
		for _, b := range names {
			if m.Correlated(ids[a], ids[b]) != m.Correlated(ids[b], ids[a]) {
				t.Errorf("Correlated(%s,%s) asymmetric", a, b)
			}
		}
	}
}

func TestStatsAppendMatchesRebuild(t *testing.T) {
	// Property: a corpus built incrementally via Append has statistics
	// identical to one scanned from scratch.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := media.NewCorpus()
		s := NewStats(c) // empty
		vocab := []string{"a", "b", "c", "d"}
		for i := 0; i < 8; i++ {
			var feats []media.Feature
			var counts []int
			for _, w := range vocab {
				if rng.Float64() < 0.6 {
					feats = append(feats, media.Feature{Kind: media.Text, Name: w})
					counts = append(counts, 1+rng.Intn(3))
				}
			}
			if len(feats) == 0 {
				feats = append(feats, media.Feature{Kind: media.Text, Name: "a"})
				counts = append(counts, 1)
			}
			o, err := c.Add(feats, counts, 0)
			if err != nil {
				return false
			}
			if err := s.Append(o); err != nil {
				return false
			}
		}
		fresh := NewStats(c)
		for fid := media.FID(0); int(fid) < c.Dict.Len(); fid++ {
			if math.Abs(s.Mean(fid)-fresh.Mean(fid)) > 1e-12 ||
				math.Abs(s.Variance(fid)-fresh.Variance(fid)) > 1e-12 ||
				math.Abs(s.Norm(fid)-fresh.Norm(fid)) > 1e-12 {
				return false
			}
			a := s.Postings(fid)
			b := fresh.Postings(fid)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStatsAppendValidation(t *testing.T) {
	c, _ := buildTinyCorpus(t)
	s := NewStats(c)
	// An object not in the corpus is rejected.
	foreign := media.NewObject(99, nil, 0)
	if err := s.Append(foreign); err == nil {
		t.Error("want error for foreign object")
	}
	// Re-appending an accounted object breaks posting order.
	if err := s.Append(c.Object(0)); err == nil {
		t.Error("want error for out-of-order append")
	}
}

// TestModelAppend pins the one mutation path: Append grows corpus and
// statistics together and advances the generation exactly once, a rejected
// object changes nothing, and afterwards no memo serves a value of the
// previous generation — not even one that a reader which captured the old
// generation stores after the append (the late Put the fill sites'
// re-check narrows but cannot exclude).
func TestModelAppend(t *testing.T) {
	c, ids := buildTinyCorpus(t)
	m := NewModel(NewStats(c), nil, nil, nil, nil, nil)
	cat, u1, o0 := ids["cat"], ids["u1"], c.Object(0)
	pair := []media.FID{cat, u1}
	read := func(m *Model) [3]float64 {
		return [3]float64{m.Cor(cat, u1), m.CliqueWeight("cat|u1", pair), m.ObjectCor(cat, o0)}
	}
	before := read(m)
	gen, objects, features := m.Generation(), c.Len(), c.Dict.Len()

	tf := func(n string) media.Feature { return media.Feature{Kind: media.Text, Name: n} }
	if _, err := m.Append([]media.Feature{tf("brandnew"), tf("x")}, []int{1, 0}, 0); err == nil {
		t.Fatal("want error for a zero count")
	}
	if m.Generation() != gen || c.Len() != objects || c.Dict.Len() != features {
		t.Fatalf("rejected Append left generation %d, %d objects, %d features; want %d, %d, %d",
			m.Generation(), c.Len(), c.Dict.Len(), gen, objects, features)
	}

	o, err := m.Append([]media.Feature{tf("cat"), tf("car")}, []int{3, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Generation(); got != gen+1 {
		t.Errorf("generation after one Append = %d, want %d", got, gen+1)
	}
	if post := m.Stats.Postings(cat); c.Object(o.ID) != o || post[len(post)-1] != o.ID {
		t.Errorf("object %d missing from the corpus or from cat's postings %v", o.ID, post)
	}

	// The racing reader's late stores, stamped with the generation it
	// captured before the append.
	m.cors.Put(gen, "cat|u1", -1)
	m.smooth.Put(gen, uint64(uint32(cat))<<32|uint64(uint32(o0.ID)), -1)
	after, want := read(m), read(NewModel(NewStats(c), nil, nil, nil, nil, nil))
	if after != want {
		t.Errorf("after Append the memos serve %v, a cold model computes %v", after, want)
	}
	for i := range before {
		if before[i] == want[i] {
			t.Errorf("fixture drift: quantity %d unchanged by the append (%v)", i, want[i])
		}
	}
}

func TestTableStats(t *testing.T) {
	m, _ := buildModel(t)
	rng := rand.New(rand.NewSource(9))
	m.TrainThresholds(100, 0.4, rng)
	stats := m.TableStats(100, rng)
	if len(stats) == 0 {
		t.Fatal("no table stats")
	}
	seen := make(map[[2]media.Kind]bool)
	for _, st := range stats {
		if st.KindA > st.KindB {
			t.Errorf("unordered pair %v×%v", st.KindA, st.KindB)
		}
		key := [2]media.Kind{st.KindA, st.KindB}
		if seen[key] {
			t.Errorf("duplicate table %v", key)
		}
		seen[key] = true
		if st.Samples <= 0 {
			t.Errorf("%v×%v: no samples", st.KindA, st.KindB)
		}
		if st.Mean < 0 || st.Mean > 1 || st.Max < st.Mean {
			t.Errorf("%v×%v: mean %v max %v inconsistent", st.KindA, st.KindB, st.Mean, st.Max)
		}
		if st.EdgeRate < 0 || st.EdgeRate > 1 {
			t.Errorf("%v×%v: edge rate %v", st.KindA, st.KindB, st.EdgeRate)
		}
	}
	// The tiny corpus has text pairs and text–user pairs within objects
	// (never two users in one object, so no U×U samples).
	for _, want := range [][2]media.Kind{
		{media.Text, media.Text}, {media.Text, media.User},
	} {
		if !seen[want] {
			t.Errorf("table %v×%v missing", want[0], want[1])
		}
	}
	if seen[[2]media.Kind{media.User, media.User}] {
		t.Error("U×U table should be empty for single-user objects")
	}
	// Formatting includes every table row.
	out := FormatTableStats(stats)
	for _, st := range stats {
		label := st.KindA.String() + "×" + st.KindB.String()
		if !strings.Contains(out, label) {
			t.Errorf("format missing %q:\n%s", label, out)
		}
	}
}

func TestTableStatsEmptyCorpus(t *testing.T) {
	m := NewModel(NewStats(media.NewCorpus()), nil, nil, nil, nil, nil)
	if got := m.TableStats(50, rand.New(rand.NewSource(1))); len(got) != 0 {
		t.Errorf("empty corpus stats = %v", got)
	}
}
