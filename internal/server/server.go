// Package server exposes the retrieval engine over a versioned HTTP/JSON
// API — the deployment surface an open-source release of the paper's
// system ships: similarity search by object ID or free text, object
// inspection, incremental ingestion, recommendation, and the
// observability surface (metrics snapshot, slow-query log, optional
// pprof).
//
// Versioned routes (v1):
//
//	GET  /v1/healthz                      liveness + corpus stats
//	GET  /v1/search?id=42&k=10            top-k similar to a corpus object
//	GET  /v1/search?text=sunset+beach&k=5 top-k for a free-text query
//	POST /v1/search                       wire search (api.SearchRequest)
//	POST /v1/search/batch                 up to api.MaxBatchQueries wire searches in one request
//	GET  /v1/objects/{id}                 one object's features and labels
//	POST /v1/objects                      insert {"tags":[],"users":[],"visualWords":[],"month":0}
//	POST /v1/recommend                    {"history":[ids],"k":10,"now":3} → FIG-T recommendations
//	GET  /v1/metrics                      metrics registry snapshot + slow-query log
//	GET  /debug/vars                      flat expvar-style view of the same registry
//	GET  /debug/pprof/*                   net/http/pprof (only with Options.Pprof)
//
// The wire contract — request/response structs, the error envelope with
// its machine-readable codes (invalid_argument, not_found,
// method_not_allowed, conflict, unavailable, deadline_exceeded), and header
// conventions — lives in internal/api. Search requests run under a
// per-request budget (Options.QueryTimeout): on expiry the engine is
// cancelled between scoring stripes and the handler answers
// 504/deadline_exceeded.
//
// Three mechanisms keep the serving path standing under live traffic (see
// "Live-traffic serving" in DESIGN.md):
//
//   - Admission control (Options.MaxInflight/MaxQueue): the search-family
//     routes run at most MaxInflight strong, with at most MaxQueue more
//     waiting; beyond that the server sheds with 503/unavailable plus
//     Retry-After, counted as server.shed.requests.
//   - Coalescing (Options.Coalesce): identical in-flight searches share
//     one engine execution, and completed results are cached under a
//     generation stamp — any insert bumps the corpus-global model
//     generation, so the cache invalidates automatically (the floatcache
//     idiom).
//   - Batching (POST /v1/search/batch): one request carries many queries
//     under one admission slot, one budget and one resolution view. Every
//     answer is byte-identical to the sequential uncached route.
//
// The server holds one backend and has no lock of its own. There are two
// backends: a shard.Router over the engines of this process (NewSharded;
// New wraps a single prebuilt engine as a one-shard router, so a
// standalone server is the same stack) and a cluster.Cluster over remote
// nodes (NewCluster). The backend is the concurrency authority: searches
// and routed inserts carry their own locking — on a router the statistics
// lock plus per-shard locks, so an insert blocks searches only for the
// global-statistics phase and the one shard it lands on — and the handlers
// pin corpus reads (query parsing, result formatting) with its View.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"figfusion/internal/api"
	"figfusion/internal/cluster"
	"figfusion/internal/corr"
	"figfusion/internal/media"
	"figfusion/internal/obs"
	"figfusion/internal/recommend"
	"figfusion/internal/retrieval"
	"figfusion/internal/shard"
	"figfusion/internal/topk"
)

// backend is what the handlers need from a serving tier. *shard.Router and
// *cluster.Cluster both satisfy it.
type backend interface {
	// Model is the corpus-global model queries resolve against; reads of
	// its corpus must be pinned with View.
	Model() *corr.Model
	// View runs fn with the corpus-global state pinned against inserts. fn
	// must not call Query or InsertContext (recursive read-locking
	// deadlocks once a writer queues); handlers that need both take the
	// view in separate non-overlapping stages instead.
	View(fn func())
	// Query runs one top-k search under the backend's own locking,
	// honouring ctx between scoring stripes; ta selects the literal
	// Algorithm 1 threshold path. The bool is the degraded-mode flag: true
	// when a cluster answered from a subset of its nodes.
	Query(ctx context.Context, q *media.Object, k int, exclude media.ObjectID, ta bool) ([]topk.Item, bool, error)
	// InsertContext ingests one object. expect >= 0 is a generation stamp:
	// the insert applies only if the corpus holds exactly that many objects.
	InsertContext(ctx context.Context, feats []media.Feature, counts []int, month int, expect int) (*media.Object, error)
	// HealthFields are the backend's own /v1/healthz fields; called under
	// View.
	HealthFields() map[string]interface{}
	// StreamSnapshot writes the backend's snapshot, or refuses before
	// writing anything with cluster.ErrNoSnapshot.
	StreamSnapshot(w io.Writer) error
}

// Server wires a backend into an http.Handler. Construct with New,
// NewSharded, or NewCluster.
type Server struct {
	backend backend
	model   *corr.Model
	rec     *recommend.Recommender
	opts    Options
	reg     *obs.Registry // nil when Options.Metrics is off
	slow    *obs.SlowLog  // nil when Options.Metrics is off
	adm     *admission    // nil when Options.MaxInflight is 0
	coal    *coalescer    // nil when Options.Coalesce is off
}

// New returns a standalone server: the prebuilt engine, which must carry
// an index, serves as the one shard of a router (see NewSharded).
func New(engine *retrieval.Engine, opts Options) *Server {
	return NewSharded(shard.FromEngine(engine), opts)
}

// NewSharded returns a server over a scatter-gather shard router. When
// opts.Metrics is set (the DefaultOptions state) the server builds an
// observability registry and attaches it to the router and its engines.
func NewSharded(router *shard.Router, opts Options) *Server {
	s := newServer(router, opts)
	if s.reg != nil {
		router.SetMetrics(s.reg, s.slow)
	}
	return s
}

// NewCluster returns a server over a multi-node cluster front-end: the
// router role of a multi-node deployment. Searches scatter-gather across
// the cluster's nodes (degrading to flagged partial results when nodes are
// down), inserts replicate to every node with generation stamps, and the
// recommendation endpoint runs against the router's own mirror model.
func NewCluster(c *cluster.Cluster, opts Options) *Server {
	s := newServer(c, opts)
	if s.reg != nil {
		c.SetMetrics(s.reg)
	}
	return s
}

// newServer builds everything that does not depend on which backend
// serves: the temporal (FIG-T) recommender over the backend's model, the
// observability registry, and the live-traffic machinery — admission
// gates the handler, coalescing keys on the corpus-global model
// generation every backend's model carries.
func newServer(b backend, opts Options) *Server {
	// recommend.New only fails on invalid parameters; defaults are valid.
	rec, _ := recommend.New(b.Model(), recommend.Config{Temporal: true})
	s := &Server{backend: b, model: b.Model(), rec: rec, opts: opts}
	if opts.Metrics {
		s.reg = obs.NewRegistry()
		s.slow = obs.NewSlowLog(64, opts.SlowQuery)
	}
	if opts.MaxInflight > 0 {
		s.adm = newAdmission(opts.MaxInflight, opts.MaxQueue, s.reg)
	}
	if opts.Coalesce {
		s.coal = newCoalescer(coalesceCap, s.model.Generation, s.reg)
	}
	return s
}

// Registry exposes the server's metrics registry (nil when metrics are
// disabled) — tests and embedding binaries read it directly.
func (s *Server) Registry() *obs.Registry { return s.reg }

// queryContext derives one request's search budget from Options.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.QueryTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.opts.QueryTimeout)
}

// Handler returns the route multiplexer: the /v1 API and the debug
// surface, all wrapped in the per-route instrumentation middleware and the
// error-envelope rewriter. The search-family routes additionally pass
// admission control.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(name, h))
	}
	// The versioned API. Search, batch and recommend — the routes whose
	// cost scales with corpus size — sit behind admission control; cheap
	// point lookups, ingestion and the observability surface do not.
	route("GET /v1/healthz", "healthz", s.handleHealth)
	route("GET /v1/search", "search", s.admit(s.handleSearch))
	route("POST /v1/search", "searchwire", s.admit(s.handleSearchWire))
	route("POST /v1/search/batch", "batch", s.admit(s.handleBatch))
	route("GET /v1/objects/{id}", "object", s.handleObject)
	route("POST /v1/objects", "insert", s.handleInsert)
	route("POST /v1/recommend", "recommend", s.admit(s.handleRecommend))
	route("GET /v1/metrics", "metrics", s.handleMetrics)
	route("GET /v1/admin/snapshot", "snapshot", s.handleSnapshot)
	// Debug surface.
	route("GET /debug/vars", "debugvars", s.handleDebugVars)
	if s.opts.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return envelopeHandler{next: mux}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers the structured envelope. Every 503 — shed, degraded
// cluster, disabled feature — carries the api contract's Retry-After
// backoff hint; centralizing it here means no unavailable path can forget
// it.
func writeError(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	if status == http.StatusServiceUnavailable && w.Header().Get(api.RetryAfterHeader) == "" {
		w.Header().Set(api.RetryAfterHeader, "1")
	}
	writeJSON(w, status, api.ErrorResponse{Error: api.ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.healthSnapshot())
}

func (s *Server) healthSnapshot() map[string]interface{} {
	var resp map[string]interface{}
	s.backend.View(func() {
		corpus := s.model.Stats.Corpus()
		resp = s.backend.HealthFields()
		resp["status"] = "ok"
		resp["objects"] = corpus.Len()
		resp["features"] = corpus.Dict.Len()
	})
	return resp
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 || v > 1000 {
			writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "k must be an integer in [1,1000], got %q", raw)
			return
		}
		k = v
	}
	// The handler runs in three pinned stages — parse the query, search,
	// format the results — instead of one long critical section, so a
	// sharded backend can admit routed inserts between stages. Result IDs
	// stay valid across the gaps: the corpus only ever grows.
	var q *media.Object
	exclude := retrieval.NoExclude
	label := ""
	status, errCode, errMsg := 0, "", ""
	s.backend.View(func() {
		corpus := s.model.Stats.Corpus()
		switch {
		case r.URL.Query().Get("id") != "":
			raw := r.URL.Query().Get("id")
			id, err := strconv.Atoi(raw)
			if err != nil || id < 0 || id >= corpus.Len() {
				status, errCode = http.StatusBadRequest, api.CodeInvalidArgument
				errMsg = fmt.Sprintf("id must identify a corpus object in [0,%d), got %q", corpus.Len(), raw)
				return
			}
			q = corpus.Object(media.ObjectID(id))
			exclude = q.ID
			label = "id:" + raw
		case r.URL.Query().Get("text") != "":
			text := r.URL.Query().Get("text")
			var ok bool
			q, ok = api.TextQuery(corpus, text)
			if !ok {
				status, errCode = http.StatusNotFound, api.CodeNotFound
				errMsg = fmt.Sprintf("no term of %q matches the corpus vocabulary", text)
				return
			}
			label = "text:" + text
		default:
			status, errCode = http.StatusBadRequest, api.CodeInvalidArgument
			errMsg = "provide either ?id= or ?text="
		}
	})
	if status != 0 {
		writeError(w, status, errCode, "%s", errMsg)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	results, partial, err := s.coalescedSearch(ctx, q, k, exclude, false)
	if err != nil {
		s.writeSearchError(w, err)
		return
	}
	resp := api.SearchResponse{Query: label, Results: make([]api.ResultItem, 0, len(results)), Partial: partial}
	s.backend.View(func() {
		corpus := s.model.Stats.Corpus()
		for _, it := range results {
			o := corpus.Object(it.ID)
			resp.Results = append(resp.Results, api.ResultItem{
				ID:    int64(o.ID),
				Score: it.Score,
				Month: o.Month,
				Tags:  featureNames(corpus, o, media.Text, 8),
			})
		}
	})
	writeJSON(w, http.StatusOK, resp)
}

// writeSearchError maps a failed search dispatch onto the envelope:
// budget expiry → 504, no answering cluster node → 503 (with the
// contract's Retry-After), anything else (the client went away) → 400 as
// a formality.
func (s *Server) writeSearchError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, api.CodeDeadlineExceeded,
			"search exceeded the %s query budget", s.opts.QueryTimeout)
	case errors.Is(err, cluster.ErrUnavailable):
		writeError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "search cancelled: %v", err)
	}
}

// handleSearchWire serves POST /v1/search — the wire search protocol
// shared by the typed client and the cluster tier. A shard node resolves
// the wire request against its replicated corpus and answers its
// partition's ranked top-k; the same handler on a router scatter-gathers,
// so the wire protocol composes across tiers. Bodies and scores are plain
// JSON, and Go's float64 round-trip is exact, so the hop never changes
// result bytes.
func (s *Server) handleSearchWire(w http.ResponseWriter, r *http.Request) {
	var req api.SearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "bad JSON: %v", err)
		return
	}
	if req.K < 1 || req.K > 1000 {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "k must be in [1,1000], got %d", req.K)
		return
	}
	var q *media.Object
	var rerr error
	s.backend.View(func() {
		q, rerr = api.ResolveQuery(s.model.Stats.Corpus(), &req)
	})
	if rerr != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "%v", rerr)
		return
	}
	exclude := media.ObjectID(retrieval.NoExclude)
	if req.Exclude != nil {
		exclude = media.ObjectID(*req.Exclude)
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	results, partial, err := s.coalescedSearch(ctx, q, req.K, exclude, req.TA)
	if err != nil {
		s.writeSearchError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wireResponse(results, partial))
}

// wireResponse renders ranked items as the POST /v1/search payload.
func wireResponse(results []topk.Item, partial bool) api.WireSearchResponse {
	resp := api.WireSearchResponse{Results: make([]api.Item, 0, len(results)), Partial: partial}
	for _, it := range results {
		resp.Results = append(resp.Results, api.Item{ID: int64(it.ID), Score: it.Score})
	}
	return resp
}

// handleSnapshot serves GET /v1/admin/snapshot: the node's snapshot
// (manifest line + length-prefixed FSG1 segments, the file Router.Save
// writes) — the bootstrap source replacement nodes load through
// shard.LoadSnapshotStream.
// A cluster front-end holds no index and refuses; integrity rides on the
// segment CRCs the loader verifies.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	// The stream's first byte commits the 200; a failure after it can only
	// truncate the body, which the loader's length prefixes and segment
	// CRCs catch. A refusal comes before any byte.
	if err := s.backend.StreamSnapshot(w); errors.Is(err, cluster.ErrNoSnapshot) {
		writeError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "%v", err)
	}
}

// handleObject serves GET /v1/objects/{id}.
func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("id")
	var resp api.ObjectResponse
	status := 0
	errMsg := ""
	s.backend.View(func() {
		corpus := s.model.Stats.Corpus()
		id, err := strconv.Atoi(raw)
		if err != nil || id < 0 || id >= corpus.Len() {
			status = http.StatusNotFound
			errMsg = fmt.Sprintf("unknown object %q", raw)
			return
		}
		o := corpus.Object(media.ObjectID(id))
		resp = api.ObjectResponse{
			ID:          int64(o.ID),
			Month:       o.Month,
			Tags:        featureNames(corpus, o, media.Text, 0),
			Users:       featureNames(corpus, o, media.User, 0),
			VisualWords: featureNames(corpus, o, media.Visual, 0),
		}
	})
	if status != 0 {
		writeError(w, status, api.CodeNotFound, "%s", errMsg)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req api.InsertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "bad JSON: %v", err)
		return
	}
	var feats []media.Feature
	var counts []int
	if len(req.Features) > 0 {
		// The wire form: exact (kind, name, count) triples from a cluster
		// router replicating an insert.
		var err error
		feats, counts, err = api.DecodeFeatures(req.Features)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "%v", err)
			return
		}
	} else {
		add := func(kind media.Kind, names []string) {
			for _, n := range names {
				if n == "" {
					continue
				}
				feats = append(feats, media.Feature{Kind: kind, Name: n})
				counts = append(counts, 1)
			}
		}
		add(media.Text, req.Tags)
		add(media.User, req.Users)
		add(media.Visual, req.VisualWords)
	}
	expect := -1
	if req.Expect != nil {
		expect = *req.Expect
	}
	o, err := s.backend.InsertContext(r.Context(), feats, counts, req.Month, expect)
	if err != nil {
		var pre *shard.PreconditionError
		switch {
		case errors.As(err, &pre) || errors.Is(err, cluster.ErrDiverged):
			writeError(w, http.StatusConflict, api.CodeConflict, "insert: %v", err)
		case errors.Is(err, cluster.ErrUnavailable):
			writeError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "insert: %v", err)
		default:
			writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "insert: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, api.InsertResponse{ID: int64(o.ID)})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req api.RecommendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "bad JSON: %v", err)
		return
	}
	if req.K == 0 {
		req.K = 10
	}
	if req.K < 1 || req.K > 1000 {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "k must be in [1,1000], got %d", req.K)
		return
	}
	if len(req.History) == 0 {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "history must not be empty")
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	var resp api.SearchResponse
	status, errMsg := 0, ""
	var rerr error
	// The recommender reads corpus-global statistics throughout scoring, so
	// the whole request stays pinned in one view.
	s.backend.View(func() {
		corpus := s.model.Stats.Corpus()
		history := make([]*media.Object, 0, len(req.History))
		histSet := make(map[media.ObjectID]bool, len(req.History))
		for _, raw := range req.History {
			if raw < 0 || int(raw) >= corpus.Len() {
				status = http.StatusBadRequest
				errMsg = fmt.Sprintf("unknown history object %d", raw)
				return
			}
			id := media.ObjectID(raw)
			history = append(history, corpus.Object(id))
			histSet[id] = true
		}
		// Candidates: everything not already in the history.
		candidates := make([]media.ObjectID, 0, corpus.Len()-len(histSet))
		for i := 0; i < corpus.Len(); i++ {
			if id := media.ObjectID(i); !histSet[id] {
				candidates = append(candidates, id)
			}
		}
		var results []topk.Item
		if results, rerr = s.rec.RecommendContext(ctx, history, candidates, req.K, req.Now); rerr != nil {
			return
		}
		resp = api.SearchResponse{Query: fmt.Sprintf("recommend:%d-item history", len(history))}
		for _, it := range results {
			o := corpus.Object(it.ID)
			resp.Results = append(resp.Results, api.ResultItem{
				ID:    int64(o.ID),
				Score: it.Score,
				Month: o.Month,
				Tags:  featureNames(corpus, o, media.Text, 8),
			})
		}
	})
	if status != 0 {
		writeError(w, status, api.CodeInvalidArgument, "%s", errMsg)
		return
	}
	if rerr != nil {
		s.writeSearchError(w, rerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func featureNames(c *media.Corpus, o *media.Object, kind media.Kind, max int) []string {
	var out []string
	for _, fid := range o.Feats {
		f := c.Dict.Feature(fid)
		if f.Kind != kind {
			continue
		}
		out = append(out, f.Name)
		if max > 0 && len(out) == max {
			break
		}
	}
	return out
}
