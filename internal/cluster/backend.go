package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"figfusion/internal/api"
	"figfusion/internal/client"
	"figfusion/internal/media"
	"figfusion/internal/shard"
	"figfusion/internal/topk"
)

// ErrDiverged marks a node whose corpus no longer matches the router's: a
// stamped insert found the node at the wrong corpus size (over HTTP, a
// 409/conflict envelope). The router stops routing to the node until a
// probe sees it back in sync (or it is re-bootstrapped from a snapshot).
var ErrDiverged = errors.New("cluster: node state has diverged")

// ErrUnavailable marks a query or insert no node could serve.
var ErrUnavailable = errors.New("cluster: no healthy node available")

// Backend is the query/insert surface of one shard node, abstracted over
// transport: LocalBackend serves an in-process shard.Router, HTTPBackend
// speaks the /v1 JSON protocol to a remote figserver. Implementations must
// be safe for concurrent use and honour ctx cancellation.
type Backend interface {
	// Search runs one wire search and returns the node's ranked partial
	// top-k over its partition.
	Search(ctx context.Context, req *api.SearchRequest) ([]topk.Item, error)
	// Insert applies one replicated insert, returning the assigned object
	// ID. A stamped request (req.Expect set) fails with an error wrapping
	// ErrDiverged when the node's corpus size does not match the stamp.
	Insert(ctx context.Context, req *api.InsertRequest) (int64, error)
	// Objects reports the node's corpus size — the health and divergence
	// probe.
	Objects(ctx context.Context) (int, error)
	// Close releases transport resources.
	Close() error
}

// LocalBackend adapts an in-process shard.Router to the Backend surface.
// It resolves wire requests exactly as a remote node's handler would —
// same decode path, same corpus lookup — so a cluster over LocalBackends
// is the wire-free reference the HTTP parity tests compare against.
type LocalBackend struct {
	router *shard.Router
}

// NewLocalBackend wraps router.
func NewLocalBackend(router *shard.Router) *LocalBackend {
	return &LocalBackend{router: router}
}

// Router exposes the wrapped router (tests kill and revive nodes around it).
func (b *LocalBackend) Router() *shard.Router { return b.router }

// Search implements Backend.
func (b *LocalBackend) Search(ctx context.Context, req *api.SearchRequest) ([]topk.Item, error) {
	var q *media.Object
	var rerr error
	b.router.View(func() {
		q, rerr = api.ResolveQuery(b.router.Model().Stats.Corpus(), req)
	})
	if rerr != nil {
		return nil, rerr
	}
	exclude := media.ObjectID(-1)
	if req.Exclude != nil {
		exclude = media.ObjectID(*req.Exclude)
	}
	items, _, err := b.router.Query(ctx, q, req.K, exclude, req.TA)
	return items, err
}

// Insert implements Backend.
func (b *LocalBackend) Insert(ctx context.Context, req *api.InsertRequest) (int64, error) {
	feats, counts, err := api.DecodeFeatures(req.Features)
	if err != nil {
		return 0, err
	}
	expect := -1
	if req.Expect != nil {
		expect = *req.Expect
	}
	o, err := b.router.InsertContext(ctx, feats, counts, req.Month, expect)
	if err != nil {
		var pre *shard.PreconditionError
		if errors.As(err, &pre) {
			return 0, fmt.Errorf("%w: %v", ErrDiverged, err)
		}
		return 0, err
	}
	return int64(o.ID), nil
}

// Objects implements Backend.
func (b *LocalBackend) Objects(_ context.Context) (int, error) {
	n := 0
	b.router.View(func() { n = b.router.Model().Stats.Corpus().Len() })
	return n, nil
}

// Close implements Backend (nothing to release in-process).
func (b *LocalBackend) Close() error { return nil }

// HTTPBackend speaks the /v1 JSON protocol to a remote figserver node
// through the shared typed client (internal/client). One HTTPBackend per
// node; requests multiplex over the client's pooled keep-alive
// connections. Retries are disabled: the router owns failover — a failed
// node is demoted and its partition re-asked elsewhere, so a
// transport-level retry would only double the traffic to a node that is
// already in trouble.
type HTTPBackend struct {
	c *client.Client
}

// NewHTTPBackend returns a backend for the node at base (a URL such as
// http://host:8080; a bare host:port gets the http scheme).
func NewHTTPBackend(base string) *HTTPBackend {
	return &HTTPBackend{c: client.New(base, client.WithRetries(0))}
}

// Base returns the node's base URL.
func (b *HTTPBackend) Base() string { return b.c.Base() }

// Search implements Backend over POST /v1/search.
func (b *HTTPBackend) Search(ctx context.Context, req *api.SearchRequest) ([]topk.Item, error) {
	resp, err := b.c.Search(ctx, req)
	if err != nil {
		return nil, wireErr(http.MethodPost, "/v1/search", err)
	}
	items := make([]topk.Item, len(resp.Results))
	for i, it := range resp.Results {
		items[i] = topk.Item{ID: media.ObjectID(it.ID), Score: it.Score}
	}
	return items, nil
}

// Insert implements Backend over POST /v1/objects.
func (b *HTTPBackend) Insert(ctx context.Context, req *api.InsertRequest) (int64, error) {
	resp, err := b.c.Insert(ctx, req)
	if err != nil {
		return 0, wireErr(http.MethodPost, "/v1/objects", err)
	}
	return resp.ID, nil
}

// Objects implements Backend over GET /v1/healthz.
func (b *HTTPBackend) Objects(ctx context.Context) (int, error) {
	resp, err := b.c.Healthz(ctx)
	if err != nil {
		return 0, wireErr(http.MethodGet, "/v1/healthz", err)
	}
	return resp.Objects, nil
}

// Close implements Backend: drops the pooled connections.
func (b *HTTPBackend) Close() error { return b.c.Close() }

// wireErr maps a client error onto the router's error surface: a
// 409/conflict envelope wraps ErrDiverged so divergence handling stays
// transport-agnostic; everything else keeps the method and path for the
// operator's logs.
func wireErr(method, path string, err error) error {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		if apiErr.Code == api.CodeConflict {
			return fmt.Errorf("%w: %s", ErrDiverged, apiErr.Message)
		}
		if apiErr.Code == "" {
			return fmt.Errorf("cluster: %s %s: HTTP %d", method, path, apiErr.Status)
		}
		return fmt.Errorf("cluster: %s %s: %s: %s", method, path, apiErr.Code, apiErr.Message)
	}
	return fmt.Errorf("cluster: %w", err)
}

// FetchSnapshot opens a node's snapshot stream (GET /v1/admin/snapshot) —
// the bootstrap source for a replacement node of the same partition. The
// caller must Close the reader; shard.LoadSnapshotStream verifies the
// framing and the FSG1 section CRCs as it decodes.
func FetchSnapshot(ctx context.Context, base string) (io.ReadCloser, error) {
	rc, err := client.New(base).Snapshot(ctx)
	if err != nil {
		return nil, wireErr(http.MethodGet, "/v1/admin/snapshot", err)
	}
	return rc, nil
}
