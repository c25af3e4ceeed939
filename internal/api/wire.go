// Wire types of the /v1 protocol: the JSON bodies that carry searches,
// recommendations and inserts between clients, router front-ends and shard
// nodes. The encoding is parity-preserving: queries travel by corpus ID
// when the query is a corpus object (both sides resolve the same object
// from their replicated corpora) and by (kind, name, count) feature lists
// otherwise, and scores come back as JSON float64 values, which Go
// marshals in shortest-exact form and parses back to the identical bits —
// so results over the wire are byte-identical to results in-process.
package api

import (
	"fmt"

	"figfusion/internal/media"
	"figfusion/internal/textproc"
)

// Feature is one modality-qualified feature count on the wire.
type Feature struct {
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// SearchRequest is the POST /v1/search body: a query by corpus object ID
// (ID set), by free text (Text set; the server resolves terms against its
// corpus vocabulary), or by explicit features, plus the ranking depth, the
// excluded object (nil = none), and the algorithm selector (TA = the
// literal Algorithm 1 threshold path instead of the indexed MRF search).
type SearchRequest struct {
	ID       *int64    `json:"id,omitempty"`
	Text     string    `json:"text,omitempty"`
	Features []Feature `json:"features,omitempty"`
	Month    int       `json:"month,omitempty"`
	K        int       `json:"k"`
	Exclude  *int64    `json:"exclude,omitempty"`
	TA       bool      `json:"ta,omitempty"`
}

// Item is one ranked hit on the wire.
type Item struct {
	ID    int64   `json:"id"`
	Score float64 `json:"score"`
}

// WireSearchResponse is the POST /v1/search payload. Partial marks a
// degraded answer: a router that skipped dead or diverged nodes reports
// the hits it could gather instead of failing the query.
type WireSearchResponse struct {
	Results []Item `json:"results"`
	Partial bool   `json:"partial,omitempty"`
}

// BatchSearchRequest is the POST /v1/search/batch body: up to
// MaxBatchQueries independent searches answered in order from one request.
// The server validates and resolves every query before running any, so a
// batch either runs whole or fails whole with the offending index named.
type BatchSearchRequest struct {
	Queries []SearchRequest `json:"queries"`
}

// MaxBatchQueries bounds one batch request — a batch is an amortization
// unit, not a bulk-export channel.
const MaxBatchQueries = 256

// BatchSearchResponse answers a batch: Results[i] is exactly the
// WireSearchResponse that POST /v1/search would have returned for
// Queries[i].
type BatchSearchResponse struct {
	Results []WireSearchResponse `json:"results"`
}

// ResultItem is one search hit of the rendered (human-facing) responses:
// the wire Item plus the object's month and a few tags for display.
type ResultItem struct {
	ID    int64    `json:"id"`
	Score float64  `json:"score"`
	Month int      `json:"month"`
	Tags  []string `json:"tags,omitempty"`
}

// SearchResponse is the GET /v1/search and POST /v1/recommend payload.
// Partial marks a degraded cluster answer: one or more nodes were down or
// diverged, so the results cover only the partitions that answered.
type SearchResponse struct {
	Query   string       `json:"query"`
	Results []ResultItem `json:"results"`
	Partial bool         `json:"partial,omitempty"`
}

// ObjectResponse is the GET /v1/objects/{id} payload.
type ObjectResponse struct {
	ID          int64    `json:"id"`
	Month       int      `json:"month"`
	Tags        []string `json:"tags"`
	Users       []string `json:"users"`
	VisualWords []string `json:"visualWords"`
}

// InsertRequest is the POST /v1/objects payload. Public clients send the
// named feature lists (tags/users/visualWords, each at count 1); a cluster
// router replicating an insert to a shard node sends the exact
// (kind, name, count) feature triples plus the generation stamp instead —
// Expect is the router's pre-insert corpus length, and a node whose corpus
// is not exactly that size answers 409/conflict rather than mis-assigning
// the object ID.
type InsertRequest struct {
	Tags        []string  `json:"tags,omitempty"`
	Users       []string  `json:"users,omitempty"`
	VisualWords []string  `json:"visualWords,omitempty"`
	Features    []Feature `json:"features,omitempty"`
	Month       int       `json:"month"`
	Expect      *int      `json:"expect,omitempty"`
}

// InsertResponse reports the assigned ID.
type InsertResponse struct {
	ID int64 `json:"id"`
}

// RecommendRequest is the POST /v1/recommend payload: the caller's
// favourite history as corpus object IDs, the recommendation depth (in
// [1,1000]; omitted or 0 means 10), and the current month for the Eq. 10
// decay.
type RecommendRequest struct {
	History []int64 `json:"history"`
	K       int     `json:"k"`
	Now     int     `json:"now"`
}

// HealthResponse is the machine-read subset of the GET /v1/healthz
// payload. Servers enrich it per backend (shard tables, node lists,
// generation); the fields here are the ones every deployment reports and
// clients key on.
type HealthResponse struct {
	Status   string `json:"status"`
	Objects  int    `json:"objects"`
	Features int    `json:"features"`
}

// EncodeQuery renders a query object for the wire: corpus objects by ID,
// ad-hoc objects (ID < 0, e.g. text queries) by feature list resolved
// through dict.
func EncodeQuery(dict *media.Dictionary, q *media.Object, k int, exclude media.ObjectID, ta bool) *SearchRequest {
	req := &SearchRequest{K: k, TA: ta, Month: q.Month}
	if exclude >= 0 {
		ex := int64(exclude)
		req.Exclude = &ex
	}
	if q.ID >= 0 {
		id := int64(q.ID)
		req.ID = &id
		return req
	}
	req.Features = make([]Feature, 0, len(q.Feats))
	for i, fid := range q.Feats {
		f := dict.Feature(fid)
		req.Features = append(req.Features, Feature{Kind: f.Kind.String(), Name: f.Name, Count: int(q.Counts[i])})
	}
	return req
}

// ResolveQuery rebuilds the query object a SearchRequest describes against
// a corpus: ID requests resolve to the corpus object (erroring when out of
// range), Text requests run the free-text pipeline against the corpus
// vocabulary, and feature requests intern nothing — features the corpus
// has never seen are dropped, exactly as the free-text path drops unknown
// terms — and error when nothing matches.
func ResolveQuery(corpus *media.Corpus, req *SearchRequest) (*media.Object, error) {
	if req.ID != nil {
		id := *req.ID
		if id < 0 || id >= int64(corpus.Len()) {
			return nil, fmt.Errorf("query id must identify a corpus object in [0,%d), got %d", corpus.Len(), id)
		}
		return corpus.Object(media.ObjectID(id)), nil
	}
	if req.Text != "" {
		q, ok := TextQuery(corpus, req.Text)
		if !ok {
			return nil, fmt.Errorf("no term of %q matches the corpus vocabulary", req.Text)
		}
		return q, nil
	}
	fcs := make([]media.FeatureCount, 0, len(req.Features))
	for _, f := range req.Features {
		kind, err := parseKind(f.Kind)
		if err != nil {
			return nil, err
		}
		fid, ok := corpus.Dict.Lookup(media.Feature{Kind: kind, Name: f.Name})
		if !ok {
			continue
		}
		fcs = append(fcs, media.FeatureCount{FID: fid, Count: media.ClampCount(f.Count)})
	}
	if len(fcs) == 0 {
		return nil, fmt.Errorf("no query feature matches the corpus vocabulary")
	}
	return media.NewObject(-1, fcs, req.Month), nil
}

// TextQuery resolves free text into an ad-hoc query object against the
// corpus vocabulary: terms are normalized without stemming first, falling
// back to their stems, and unknown terms are dropped. ok is false when no
// term matched. This mirrors the root package's TextQuery without
// importing it (which would be an import cycle for the server).
func TextQuery(c *media.Corpus, text string) (*media.Object, bool) {
	pipeline := textproc.NewPipeline(textproc.WithoutStemming())
	var fcs []media.FeatureCount
	for _, term := range pipeline.Normalize(text) {
		fid, ok := c.Dict.Lookup(media.Feature{Kind: media.Text, Name: term})
		if !ok {
			fid, ok = c.Dict.Lookup(media.Feature{Kind: media.Text, Name: textproc.Stem(term)})
		}
		if !ok {
			continue
		}
		fcs = append(fcs, media.FeatureCount{FID: fid, Count: 1})
	}
	if len(fcs) == 0 {
		return nil, false
	}
	return media.NewObject(-1, fcs, 0), true
}

// EncodeFeatures renders an insert's exact feature/count pairs for the
// wire; DecodeFeatures inverts it.
func EncodeFeatures(feats []media.Feature, counts []int) []Feature {
	out := make([]Feature, len(feats))
	for i, f := range feats {
		out[i] = Feature{Kind: f.Kind.String(), Name: f.Name, Count: counts[i]}
	}
	return out
}

// DecodeFeatures parses wire features back into the (features, counts)
// pair Corpus.Add consumes.
func DecodeFeatures(wire []Feature) ([]media.Feature, []int, error) {
	feats := make([]media.Feature, len(wire))
	counts := make([]int, len(wire))
	for i, f := range wire {
		kind, err := parseKind(f.Kind)
		if err != nil {
			return nil, nil, err
		}
		feats[i] = media.Feature{Kind: kind, Name: f.Name}
		counts[i] = f.Count
	}
	return feats, counts, nil
}

// parseKind inverts media.Kind.String.
func parseKind(s string) (media.Kind, error) {
	switch s {
	case "text":
		return media.Text, nil
	case "visual":
		return media.Visual, nil
	case "user":
		return media.User, nil
	case "audio":
		return media.Audio, nil
	}
	return 0, fmt.Errorf("unknown feature kind %q (want text, visual, user or audio)", s)
}
