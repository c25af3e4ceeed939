package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"figfusion/internal/api"
	"figfusion/internal/cluster"
	"figfusion/internal/dataset"
	"figfusion/internal/topk"
)

// errDown is the transport failure every downBackend call returns.
var errDown = errors.New("node down")

// downBackend fails every call — a node that is off the network. It turns
// a one-node cluster server into the degraded-cluster fixture.
type downBackend struct{}

func (downBackend) Search(ctx context.Context, req *api.SearchRequest) ([]topk.Item, error) {
	return nil, errDown
}
func (downBackend) Insert(ctx context.Context, req *api.InsertRequest) (int64, error) {
	return 0, errDown
}
func (downBackend) Objects(ctx context.Context) (int, error) { return 0, errDown }
func (downBackend) Close() error                             { return nil }

// TestErrorEnvelopeShapes pins the failure envelopes from one table: the
// degraded-cluster 503, the shed 503, the query-timeout 504 (search and
// recommend), recommend's out-of-range k 400 and the stamped-insert 409
// all answer the {"error":{code,message}} shape, and
// exactly the 503s carry Retry-After — the client contract's signal that
// the request is safe to retry after backing off.
func TestErrorEnvelopeShapes(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.NumObjects = 200
	cfg.NumTopics = 5
	cfg.TagsPerTopic = 8
	cfg.NoiseTags = 24
	cfg.UsersPerTopic = 8
	cfg.VisualVocab = 12
	cfg.VocabTrainImages = 40
	cfg.ImageBlocks = 2
	cfg.KMeansIters = 8
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := cluster.New(cluster.Config{
		Mirror: d.Model(),
		Nodes:  []cluster.NodeConfig{{Name: "n0", Backend: downBackend{}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	timeoutOpts := DefaultOptions()
	timeoutOpts.QueryTimeout = time.Nanosecond
	cases := []struct {
		name           string
		handler        http.Handler
		method, target string
		body           string
		status         int
		code           string
		wantRetryAfter bool
	}{
		{
			name:    "degraded cluster",
			handler: NewCluster(degraded, DefaultOptions()).Handler(),
			method:  "GET", target: "/v1/search?id=5&k=4",
			status: http.StatusServiceUnavailable, code: api.CodeUnavailable,
			wantRetryAfter: true,
		},
		{
			name:    "query timeout",
			handler: func() http.Handler { s, _ := testShardedServerOpts(t, 2, timeoutOpts); return s.Handler() }(),
			method:  "GET", target: "/v1/search?id=5&k=4",
			status: http.StatusGatewayTimeout, code: api.CodeDeadlineExceeded,
			wantRetryAfter: false,
		},
		{
			name:    "recommend timeout",
			handler: func() http.Handler { s, _ := testShardedServerOpts(t, 2, timeoutOpts); return s.Handler() }(),
			method:  "POST", target: "/v1/recommend",
			body:   `{"history":[1,2,3],"k":5}`,
			status: http.StatusGatewayTimeout, code: api.CodeDeadlineExceeded,
			wantRetryAfter: false,
		},
		{
			name:    "recommend k above range",
			handler: func() http.Handler { s, _ := testServer(t); return s.Handler() }(),
			method:  "POST", target: "/v1/recommend",
			body:   `{"history":[1,2,3],"k":5000}`,
			status: http.StatusBadRequest, code: api.CodeInvalidArgument,
			wantRetryAfter: false,
		},
		{
			name:    "recommend negative k",
			handler: func() http.Handler { s, _ := testServer(t); return s.Handler() }(),
			method:  "POST", target: "/v1/recommend",
			body:   `{"history":[1,2,3],"k":-3}`,
			status: http.StatusBadRequest, code: api.CodeInvalidArgument,
			wantRetryAfter: false,
		},
		{
			name:    "stamped insert conflict",
			handler: func() http.Handler { s, _ := testServer(t); return s.Handler() }(),
			method:  "POST", target: "/v1/objects",
			body:   `{"tags":["topic00tag00"],"month":1,"expect":7}`,
			status: http.StatusConflict, code: api.CodeConflict,
			wantRetryAfter: false,
		},
	}
	for _, tc := range cases {
		var req *http.Request
		if tc.body != "" {
			req = httptest.NewRequest(tc.method, tc.target, bytes.NewReader([]byte(tc.body)))
		} else {
			req = httptest.NewRequest(tc.method, tc.target, nil)
		}
		rec := httptest.NewRecorder()
		tc.handler.ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, rec.Code, tc.status, rec.Body.String())
			continue
		}
		var resp api.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Errorf("%s: bad JSON %q: %v", tc.name, rec.Body.String(), err)
			continue
		}
		if resp.Error.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, resp.Error.Code, tc.code)
		}
		if resp.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
		if got := rec.Header().Get("Retry-After"); (got != "") != tc.wantRetryAfter {
			t.Errorf("%s: Retry-After = %q, want present=%v", tc.name, got, tc.wantRetryAfter)
		}
	}
}
