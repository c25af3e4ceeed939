// Package api is the single source of truth for the /v1 wire contract:
// the JSON request/response bodies, the structured error envelope with its
// machine-readable codes, and the header conventions every /v1 server and
// client follows. internal/server implements the contract, internal/client
// speaks it, and internal/cluster rides it between a router front-end and
// its shard nodes — none of them declares wire shapes of its own, so the
// format cannot drift between callers.
//
// Error envelope. Every non-2xx response carries
//
//	{"error": {"code": "...", "message": "..."}}
//
// with one of the Code* constants below. Statuses map conventionally
// (StatusFor): invalid_argument → 400, not_found → 404,
// method_not_allowed → 405, conflict → 409, unavailable → 503,
// deadline_exceeded → 504.
//
// Header conventions:
//
//   - Every 503/unavailable response — load shed, degraded cluster, or a
//     feature the deployment cannot serve — sets Retry-After (delay
//     seconds), so clients back off an amount the server chose rather than
//     guessing.
package api

import "net/http"

// Error codes of the /v1 envelope.
const (
	// CodeInvalidArgument (400) rejects a malformed or out-of-range
	// request.
	CodeInvalidArgument = "invalid_argument"
	// CodeNotFound (404) answers a lookup of an object or route that does
	// not exist.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed (405) answers a known route with the wrong verb.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeConflict (409) answers a stamped insert whose Expect does not
	// match the node's corpus size — the divergence signal of multi-node
	// replication.
	CodeConflict = "conflict"
	// CodeUnavailable (503) answers work the deployment cannot take on
	// right now: admission control shed it, every cluster node is out, or
	// the feature is disabled. The response always carries Retry-After.
	CodeUnavailable = "unavailable"
	// CodeDeadlineExceeded (504) answers a search that outran its
	// per-request budget.
	CodeDeadlineExceeded = "deadline_exceeded"
)

// RetryAfterHeader is the backoff hint every 503/unavailable response
// carries: an integral number of seconds the client should wait before
// retrying. internal/client honours it.
const RetryAfterHeader = "Retry-After"

// ErrorBody is the envelope's inner object.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the structured error envelope every /v1 handler
// answers with: {"error": {"code": "...", "message": "..."}}.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// StatusFor maps an envelope code onto its conventional HTTP status.
// Unknown codes map to 500 — a server bug, not a contract state.
func StatusFor(code string) int {
	switch code {
	case CodeInvalidArgument:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeConflict:
		return http.StatusConflict
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}
