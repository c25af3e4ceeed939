// Package client is the typed Go client for the figfusion /v1 HTTP API.
// It is the one place in the tree that turns the wire contract declared in
// internal/api into method calls: the cluster router's HTTPBackend, the
// figsearch remote mode and the figload generator all speak /v1 through
// it, so a wire change is a two-file affair (internal/api + the handler)
// instead of a hunt across every caller.
//
// A Client multiplexes requests over pooled keep-alive connections and is
// safe for concurrent use. Every call takes a context and honours its
// cancellation and deadline.
//
// Error handling follows the contract's envelope discipline: any non-2xx
// response with a decodable {"error":{code,message}} body surfaces as an
// *APIError carrying the HTTP status, the machine-readable code and the
// parsed Retry-After header. 503/unavailable responses — admission-control
// sheds and degraded clusters, the two cases the contract marks as
// "rejected before processing, safe to retry" — are retried automatically
// with capped exponential backoff, honouring the server's Retry-After
// hint when present. No other status retries: a 5xx from mid-execution is
// not known to be idempotent, and transport errors may have had side
// effects. Configure with WithRetries(0) to observe every shed (the load
// generator does) or when a layer above owns failover (the cluster router
// does).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"figfusion/internal/api"
)

// DefaultRetries is how many times a 503-rejected request is retried
// before the APIError surfaces to the caller.
const DefaultRetries = 3

// DefaultBackoff is the first retry delay when the server sent no
// Retry-After hint; each further attempt doubles it, capped at
// maxBackoff.
const DefaultBackoff = 50 * time.Millisecond

// maxBackoff caps the exponential retry delay.
const maxBackoff = 2 * time.Second

// APIError is a non-2xx response decoded from the /v1 error envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the envelope's machine-readable code (api.Code*), or ""
	// when the body carried no decodable envelope.
	Code string
	// Message is the envelope's human-readable message.
	Message string
	// RetryAfter is the parsed Retry-After header (0 when absent) — the
	// server's backoff hint on 503 responses.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("HTTP %d", e.Status)
	}
	return fmt.Sprintf("%s: %s (HTTP %d)", e.Code, e.Message, e.Status)
}

// Client calls one figserver (any -role: single, sharded, cluster router,
// or shard node). Construct with New; safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transport, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries bounds automatic 503 retries; 0 disables them so every
// shed surfaces as an *APIError.
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// WithBackoff sets the first retry delay used when the server sent no
// Retry-After hint.
func WithBackoff(d time.Duration) Option {
	return func(c *Client) { c.backoff = d }
}

// New returns a client for the server at base (a URL such as
// http://host:8080; a bare host:port gets the http scheme).
func New(base string, opts ...Option) *Client {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{
		base:    base,
		retries: DefaultRetries,
		backoff: DefaultBackoff,
	}
	for _, o := range opts {
		o(c)
	}
	if c.hc == nil {
		c.hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return c
}

// Base returns the normalized base URL.
func (c *Client) Base() string { return c.base }

// Close drops the pooled connections.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// Search runs one wire search (POST /v1/search).
func (c *Client) Search(ctx context.Context, req *api.SearchRequest) (*api.WireSearchResponse, error) {
	var resp api.WireSearchResponse
	if err := c.call(ctx, http.MethodPost, "/v1/search", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// SearchBatch runs up to api.MaxBatchQueries searches in one round trip
// (POST /v1/search/batch). Results arrive in request order; each entry is
// byte-identical to what Search would have answered for that query alone.
func (c *Client) SearchBatch(ctx context.Context, req *api.BatchSearchRequest) (*api.BatchSearchResponse, error) {
	var resp api.BatchSearchResponse
	if err := c.call(ctx, http.MethodPost, "/v1/search/batch", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Insert ingests one object (POST /v1/objects).
func (c *Client) Insert(ctx context.Context, req *api.InsertRequest) (*api.InsertResponse, error) {
	var resp api.InsertResponse
	if err := c.call(ctx, http.MethodPost, "/v1/objects", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Recommend ranks objects against a user history (POST /v1/recommend).
func (c *Client) Recommend(ctx context.Context, req *api.RecommendRequest) (*api.SearchResponse, error) {
	var resp api.SearchResponse
	if err := c.call(ctx, http.MethodPost, "/v1/recommend", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Object fetches one object by ID (GET /v1/objects/{id}).
func (c *Client) Object(ctx context.Context, id int64) (*api.ObjectResponse, error) {
	var resp api.ObjectResponse
	path := "/v1/objects/" + strconv.FormatInt(id, 10)
	if err := c.call(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz reports server health and corpus size (GET /v1/healthz).
func (c *Client) Healthz(ctx context.Context) (*api.HealthResponse, error) {
	var resp api.HealthResponse
	if err := c.call(ctx, http.MethodGet, "/v1/healthz", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// call runs one request with the retry-on-503 policy: the request body is
// marshalled once and replayed on each attempt.
func (c *Client) call(ctx context.Context, method, path string, in, out interface{}) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: %s %s: encode: %w", method, path, err)
		}
	}
	delay := c.backoff
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, body, out)
		apiErr, ok := err.(*APIError)
		if !ok || apiErr.Status != http.StatusServiceUnavailable || attempt >= c.retries {
			return err
		}
		// The server rejected the request before processing (shed or
		// degraded): back off and retry, preferring its own hint.
		wait := delay
		if apiErr.RetryAfter > 0 {
			wait = apiErr.RetryAfter
		}
		if wait > maxBackoff {
			wait = maxBackoff
		}
		if err := sleep(ctx, wait); err != nil {
			return err
		}
		if delay *= 2; delay > maxBackoff {
			delay = maxBackoff
		}
	}
}

// Snapshot opens GET /v1/admin/snapshot: the node's snapshot as one body
// stream (shard.LoadSnapshotStream reads it) that the caller must Close. A
// refusal surfaces as an *APIError like any other call's; a body stream is
// not replayable, so nothing retries.
func (c *Client) Snapshot(ctx context.Context) (io.ReadCloser, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/admin/snapshot", nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// once runs a single HTTP attempt and decodes its 2xx body into out.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out interface{}) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: %s %s: decode: %w", method, path, err)
	}
	return nil
}

// do sends one request and returns its 2xx response, body unread; any
// other status is consumed into an *APIError.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	apiErr := &APIError{Status: resp.StatusCode}
	if ra := resp.Header.Get(api.RetryAfterHeader); ra != "" {
		if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var envelope api.ErrorResponse
	if jerr := json.Unmarshal(raw, &envelope); jerr == nil && envelope.Error.Code != "" {
		apiErr.Code = envelope.Error.Code
		apiErr.Message = envelope.Error.Message
	}
	return nil, apiErr
}

// sleep waits d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
