package server

import (
	"encoding/json"
	"net/http"

	"figfusion/internal/api"
	"figfusion/internal/media"
	"figfusion/internal/retrieval"
)

// handleBatch serves POST /v1/search/batch: up to api.MaxBatchQueries wire
// searches answered in order from one HTTP request. One admission slot,
// one request budget and one query-resolution view cover the whole batch;
// each query then runs exactly as it would alone. Every entry of the
// response is byte-identical to what POST /v1/search would have answered
// for that query alone: same resolution, same (deterministic) scoring,
// same JSON rendering. The batch validates and resolves completely before
// running anything, so it either runs whole or fails whole with the
// offending query index named.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchSearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "bad JSON: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "batch must carry at least one query")
		return
	}
	if len(req.Queries) > api.MaxBatchQueries {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
			"batch carries %d queries; the limit is %d", len(req.Queries), api.MaxBatchQueries)
		return
	}
	for i := range req.Queries {
		if k := req.Queries[i].K; k < 1 || k > 1000 {
			writeError(w, http.StatusBadRequest, api.CodeInvalidArgument,
				"query %d: k must be in [1,1000], got %d", i, k)
			return
		}
	}
	// Resolve every query under one pinned view: the whole batch parses
	// against one corpus snapshot, exactly as its sequential equivalent
	// would if no insert interleaved.
	queries := make([]*media.Object, len(req.Queries))
	excludes := make([]media.ObjectID, len(req.Queries))
	rerrIndex, rerrMsg := -1, ""
	s.backend.View(func() {
		corpus := s.model.Stats.Corpus()
		for i := range req.Queries {
			q, err := api.ResolveQuery(corpus, &req.Queries[i])
			if err != nil {
				rerrIndex, rerrMsg = i, err.Error()
				return
			}
			queries[i] = q
			excludes[i] = media.ObjectID(retrieval.NoExclude)
			if ex := req.Queries[i].Exclude; ex != nil {
				excludes[i] = media.ObjectID(*ex)
			}
		}
	})
	if rerrIndex >= 0 {
		writeError(w, http.StatusBadRequest, api.CodeInvalidArgument, "query %d: %s", rerrIndex, rerrMsg)
		return
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	resp := api.BatchSearchResponse{Results: make([]api.WireSearchResponse, len(req.Queries))}
	for i, q := range queries {
		items, partial, err := s.backend.Query(ctx, q, req.Queries[i].K, excludes[i], req.Queries[i].TA)
		if err != nil {
			s.writeSearchError(w, err)
			return
		}
		resp.Results[i] = wireResponse(items, partial)
	}
	writeJSON(w, http.StatusOK, resp)
}
