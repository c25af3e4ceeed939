package api_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"figfusion/internal/api"
	"figfusion/internal/cluster"
	"figfusion/internal/topk"
)

// The /v1 wire format is an external contract: these literals are the
// bytes on the wire, and changing any of them breaks deployed clients and
// mixed-version clusters. A failure here means a field name, omission rule
// or code string drifted — fix the code, not the test, unless the change
// is a deliberate, versioned protocol revision.
func TestWireFieldNamesPinned(t *testing.T) {
	id := int64(42)
	ex := int64(7)
	expect := 99
	cases := []struct {
		name string
		v    interface{}
		want string
	}{
		{
			"searchRequestByID",
			api.SearchRequest{ID: &id, K: 10, Exclude: &ex, TA: true},
			`{"id":42,"k":10,"exclude":7,"ta":true}`,
		},
		{
			"searchRequestByText",
			api.SearchRequest{Text: "sunset beach", K: 5},
			`{"text":"sunset beach","k":5}`,
		},
		{
			"searchRequestByFeatures",
			api.SearchRequest{Features: []api.Feature{{Kind: "text", Name: "sunset", Count: 2}}, Month: 3, K: 1},
			`{"features":[{"kind":"text","name":"sunset","count":2}],"month":3,"k":1}`,
		},
		{
			"wireSearchResponse",
			api.WireSearchResponse{Results: []api.Item{{ID: 4, Score: 0.5}}, Partial: true},
			`{"results":[{"id":4,"score":0.5}],"partial":true}`,
		},
		{
			"batchSearchRequest",
			api.BatchSearchRequest{Queries: []api.SearchRequest{{ID: &id, K: 3}}},
			`{"queries":[{"id":42,"k":3}]}`,
		},
		{
			"batchSearchResponse",
			api.BatchSearchResponse{Results: []api.WireSearchResponse{{Results: []api.Item{}}}},
			`{"results":[{"results":[]}]}`,
		},
		{
			"resultItem",
			api.ResultItem{ID: 1, Score: 2.5, Month: 6, Tags: []string{"a"}},
			`{"id":1,"score":2.5,"month":6,"tags":["a"]}`,
		},
		{
			"searchResponse",
			api.SearchResponse{Query: "id:1", Results: []api.ResultItem{}},
			`{"query":"id:1","results":[]}`,
		},
		{
			"objectResponse",
			api.ObjectResponse{ID: 3, Month: 1, Tags: []string{"t"}, Users: []string{"u"}, VisualWords: []string{"v"}},
			`{"id":3,"month":1,"tags":["t"],"users":["u"],"visualWords":["v"]}`,
		},
		{
			"insertRequestNamedLists",
			api.InsertRequest{Tags: []string{"t"}, Users: []string{"u"}, VisualWords: []string{"v"}, Month: 2},
			`{"tags":["t"],"users":["u"],"visualWords":["v"],"month":2}`,
		},
		{
			"insertRequestReplicated",
			api.InsertRequest{Features: []api.Feature{{Kind: "user", Name: "u1", Count: 1}}, Month: 0, Expect: &expect},
			`{"features":[{"kind":"user","name":"u1","count":1}],"month":0,"expect":99}`,
		},
		{
			"insertResponse",
			api.InsertResponse{ID: 100},
			`{"id":100}`,
		},
		{
			"recommendRequest",
			api.RecommendRequest{History: []int64{1, 2}, K: 10, Now: 3},
			`{"history":[1,2],"k":10,"now":3}`,
		},
		{
			"healthResponse",
			api.HealthResponse{Status: "ok", Objects: 10, Features: 20},
			`{"status":"ok","objects":10,"features":20}`,
		},
		{
			"errorEnvelope",
			api.ErrorResponse{Error: api.ErrorBody{Code: api.CodeUnavailable, Message: "shed"}},
			`{"error":{"code":"unavailable","message":"shed"}}`,
		},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: wire bytes drifted:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}

// The cluster tier's node transport must speak the api structs themselves,
// not copies or renamings of them. These assignments fail to compile if
// the package grows its own wire shape again.
func TestWireTypesShared(t *testing.T) {
	var _ func(cluster.Backend, context.Context, *api.SearchRequest) ([]topk.Item, error) = cluster.Backend.Search
	var _ func(cluster.Backend, context.Context, *api.InsertRequest) (int64, error) = cluster.Backend.Insert
}

func TestErrorCodeStatuses(t *testing.T) {
	want := map[string]int{
		api.CodeInvalidArgument:  http.StatusBadRequest,
		api.CodeNotFound:         http.StatusNotFound,
		api.CodeMethodNotAllowed: http.StatusMethodNotAllowed,
		api.CodeConflict:         http.StatusConflict,
		api.CodeUnavailable:      http.StatusServiceUnavailable,
		api.CodeDeadlineExceeded: http.StatusGatewayTimeout,
	}
	for code, status := range want {
		if got := api.StatusFor(code); got != status {
			t.Errorf("StatusFor(%q) = %d, want %d", code, got, status)
		}
	}
	if got := api.StatusFor("no_such_code"); got != http.StatusInternalServerError {
		t.Errorf("StatusFor(unknown) = %d, want 500", got)
	}
}
