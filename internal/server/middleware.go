package server

import (
	"encoding/json"
	"net/http"
	"path"
	"runtime"
	"strings"
	"time"

	"figfusion/internal/api"
	"figfusion/internal/obs"
)

// instrument wraps one route handler with per-route observability:
// request and error counters plus a latency histogram, all named
// http.<route>.*. With metrics disabled the handler is served bare.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	if s.reg == nil {
		return h
	}
	requests := s.reg.Counter("http." + route + ".requests")
	errs := s.reg.Counter("http." + route + ".errors")
	latency := s.reg.Histogram("http." + route + ".latency")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		latency.Observe(time.Since(start))
		requests.Inc()
		if sw.status >= 400 {
			errs.Inc()
		}
	})
}

// statusWriter captures the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// envelopeHandler rewrites the mux's own plain-text 404/405 responses
// (unmatched path, wrong method) into the JSON error envelope, so every
// error leaving the server — handler-written or mux-written — has the
// same machine-readable shape. Handler responses pass through untouched:
// they set an application/json content type before writing the header.
type envelopeHandler struct {
	next http.Handler
}

func (e envelopeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The mux would answer a path with a "." or ".." segment or a doubled
	// slash with a text/html 301 to the cleaned path; no route is served
	// under such a path, so it gets the not_found envelope instead.
	if p := r.URL.Path; !canonical(p) {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "no such route: path %q is not in canonical form", p)
		return
	}
	e.next.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
}

// canonical reports whether http.ServeMux would serve p as it is: p equals
// its path.Clean form, a trailing slash kept.
func canonical(p string) bool {
	c := path.Clean(p)
	if strings.HasSuffix(p, "/") && c != "/" {
		c += "/"
	}
	return c == p
}

type envelopeWriter struct {
	http.ResponseWriter
	rewrote     bool
	wroteHeader bool
}

func (w *envelopeWriter) WriteHeader(status int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		w.rewrote = true
		w.Header().Set("Content-Type", "application/json")
		w.Header().Del("X-Content-Type-Options")
		w.ResponseWriter.WriteHeader(status)
		code := api.CodeNotFound
		msg := "no such route"
		if status == http.StatusMethodNotAllowed {
			code = api.CodeMethodNotAllowed
			msg = "method not allowed for this route"
		}
		_ = json.NewEncoder(w.ResponseWriter).Encode(api.ErrorResponse{Error: api.ErrorBody{Code: code, Message: msg}})
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *envelopeWriter) Write(b []byte) (int, error) {
	if w.rewrote {
		// Swallow the mux's plain-text body; the envelope already went out.
		return len(b), nil
	}
	if !w.wroteHeader {
		w.wroteHeader = true
	}
	return w.ResponseWriter.Write(b)
}

// MetricsResponse is the /v1/metrics payload: the full registry snapshot
// plus the slow-query log.
type MetricsResponse struct {
	Metrics       obs.Snapshot    `json:"metrics"`
	SlowQueries   []obs.SlowQuery `json:"slowQueries"`
	SlowTotal     uint64          `json:"slowTotal"`
	SlowThreshold string          `json:"slowThreshold"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		writeError(w, http.StatusServiceUnavailable, api.CodeUnavailable, "metrics are disabled (-metrics=false)")
		return
	}
	slowQueries, slowTotal := s.slow.Snapshot()
	if slowQueries == nil {
		slowQueries = []obs.SlowQuery{}
	}
	writeJSON(w, http.StatusOK, MetricsResponse{
		Metrics:       s.metricsSnapshot(),
		SlowQueries:   slowQueries,
		SlowTotal:     slowTotal,
		SlowThreshold: s.slow.Threshold().String(),
	})
}

// metricsSnapshot reads the registry with the corpus pinned against
// inserts: the func gauges walk live engine state (index.resident.bytes
// reads the index's entry maps), which an unpinned scrape would race with
// POST /v1/objects.
func (s *Server) metricsSnapshot() obs.Snapshot {
	var snap obs.Snapshot
	s.backend.View(func() { snap = s.reg.Snapshot() })
	return snap
}

// handleDebugVars is the /debug/vars-style exposition: the same registry
// flattened into one JSON object of name → value (histograms appear as
// their snapshot objects), plus goroutine and heap vitals — convenient
// for expvar-shaped scrapers and `curl | jq` spelunking.
func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	vars := make(map[string]interface{})
	if s.reg != nil {
		snap := s.metricsSnapshot()
		for n, v := range snap.Counters {
			vars[n] = v
		}
		for n, v := range snap.Gauges {
			vars[n] = v
		}
		for n, v := range snap.Histograms {
			vars[n] = v
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vars["runtime.goroutines"] = runtime.NumGoroutine()
	vars["runtime.heapAllocBytes"] = ms.HeapAlloc
	vars["runtime.totalAllocBytes"] = ms.TotalAlloc
	vars["runtime.numGC"] = ms.NumGC
	writeJSON(w, http.StatusOK, vars)
}
