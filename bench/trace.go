package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// opHeader carries the op id from the benchmark's transport to the
// benchmark's handler wrapper on the front server.
const opHeader = "X-Bench-Op"

// span is one traced interval: times are nanoseconds since the tracer's
// origin, Parent is the id of the span that caused it (0 = none), and all
// spans of one request share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans from the benchmark's own files: around client
// calls, in a handler wrapper around each server, and around the layer
// pass's calls into the engine. Spans stay in memory until the run ends.
//
// Span ids are fixed by the op so a child can name its parent before the
// parent has ended: op i's client span is i+1 and its front-server span
// total+i+1; every other span takes the next free id.
type tracer struct {
	origin time.Time
	total  int // ops in the plan

	// readOp and insertOp join a node's span to its op on a fleet, where
	// the router's own client stamps no header: a read by its (query,
	// ta) pair, an insert by its expect stamp, both unique per op.
	readOp   map[readKey]int
	insertOp map[int]int

	mu     sync.Mutex
	spans  []span
	nextID int

	// reqBytes and respBytes total the wire bodies of the traced ops.
	reqBytes, respBytes, bodies atomic.Int64
}

type readKey struct {
	query int64
	ta    bool
}

type opCtxKey struct{}

// withOp tags a context with the op id its request belongs to.
func withOp(ctx context.Context, op int) context.Context {
	return context.WithValue(ctx, opCtxKey{}, op)
}

func newTracer(pl *plan) *tracer {
	t := &tracer{
		origin:   time.Now(),
		total:    pl.Total,
		readOp:   make(map[readKey]int),
		insertOp: make(map[int]int),
		nextID:   2*pl.Total + 1,
	}
	for _, ph := range pl.Phases {
		for i, o := range ph.Ops {
			if o.Kind == opInsert {
				// The router stamps a replicated insert with its pre-insert
				// corpus length, which is the id the object is assigned.
				t.insertOp[int(o.Query)] = ph.First + i
			} else {
				t.readOp[readKey{o.Query, o.Kind == opTA}] = ph.First + i
			}
		}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) clientID(op int) int { return op + 1 }
func (t *tracer) frontID(op int) int  { return t.total + op + 1 }

// record stores a finished span; id 0 takes the next free id.
func (t *tracer) record(id, parent int, name string, op int, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		id = t.nextID
		t.nextID++
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: start, End: end})
}

// timed runs fn inside a root span and returns its duration — the layer
// pass's stopwatch.
func (t *tracer) timed(name string, op int, fn func()) time.Duration {
	start := t.now()
	fn()
	end := t.now()
	t.record(0, 0, name, op, start, end)
	return time.Duration(end - start)
}

// wrap is the benchmark-owned handler around a server's handler (a
// wrapFunc). Requests that belong to no op — health probes, set-up,
// verification — pass through unrecorded.
func (t *tracer) wrap(role string, node int, next http.Handler) http.Handler {
	name := "server"
	if role == "node" {
		name = fmt.Sprintf("node%d", node)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, ok := -1, false
		if role == "front" {
			if v, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
				op, ok = v, true
			}
		} else if r.Method == http.MethodPost {
			op, ok = t.nodeOp(r)
		}
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		if role == "front" {
			t.record(t.frontID(op), t.clientID(op), name, op, start, t.now())
		} else {
			t.record(0, t.frontID(op), name, op, start, t.now())
		}
	})
}

// nodeOp identifies the op behind a router-to-node request from its body,
// which it reads and restores.
func (t *tracer) nodeOp(r *http.Request) (int, bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return -1, false
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var probe struct {
		ID     *int64 `json:"id"`
		TA     bool   `json:"ta"`
		Expect *int   `json:"expect"`
	}
	if json.Unmarshal(body, &probe) != nil {
		return -1, false
	}
	var op int
	var ok bool
	switch {
	case r.URL.Path == "/v1/search" && probe.ID != nil:
		op, ok = t.readOp[readKey{*probe.ID, probe.TA}]
	case r.URL.Path == "/v1/objects" && probe.Expect != nil:
		op, ok = t.insertOp[*probe.Expect]
	}
	return op, ok
}

// transport is the benchmark-owned RoundTripper under internal/client: it
// stamps the op header, totals body sizes, and — for the verification
// test alone — lets a hook corrupt a response body.
type transport struct {
	base    http.RoundTripper
	tracer  *tracer                  // nil on an untraced run
	corrupt func(body []byte) []byte // nil outside tests
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	op, traced := req.Context().Value(opCtxKey{}).(int)
	traced = traced && tr.tracer != nil
	if traced {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := tr.base.RoundTrip(req)
	if err != nil || (!traced && tr.corrupt == nil) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if traced {
		tr.tracer.reqBytes.Add(req.ContentLength)
		tr.tracer.respBytes.Add(int64(len(body)))
		tr.tracer.bodies.Add(1)
	}
	if tr.corrupt != nil {
		body = tr.corrupt(body)
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// checkContainment verifies the trace's shape: every op has a client
// span, and each of its server-side spans lies inside it.
func (t *tracer) checkContainment() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	client := make(map[int]span, t.total)
	for _, s := range t.spans {
		if s.Name == "client" {
			client[s.Op] = s
		}
	}
	if len(client) != t.total {
		return fmt.Errorf("trace: %d client spans for %d ops", len(client), t.total)
	}
	served := make(map[int]bool, t.total)
	for _, s := range t.spans {
		if s.Parent == 0 || s.Name == "client" {
			continue
		}
		c := client[s.Op]
		if s.Start < c.Start || s.End > c.End {
			return fmt.Errorf("trace: op %d: %s span [%d,%d] lies outside its client span [%d,%d]", s.Op, s.Name, s.Start, s.End, c.Start, c.End)
		}
		if s.Name == "server" {
			served[s.Op] = true
		}
	}
	if len(served) != t.total {
		return fmt.Errorf("trace: %d of %d ops have a server span", len(served), t.total)
	}
	return nil
}

// writeSpans writes one JSON span per line to path.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
