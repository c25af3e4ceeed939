// Package obs is the dependency-free observability core of the serving
// stack: atomic counters and gauges, fixed-bucket latency histograms with
// quantile snapshots, a named registry the HTTP layer exposes at
// /v1/metrics, plus per-query traces and a bounded slow-query log (see
// trace.go).
//
// Two properties shape the API:
//
//   - Hot-path cost. Instrumented code runs inside Search, so recording is
//     a handful of atomic adds into preallocated slots — no locks, no maps,
//     no allocation. Histogram buckets are fixed at construction;
//     Observe is a binary search over at most a few dozen bounds plus two
//     atomic adds.
//   - Nil safety. Every recording method is a no-op on a nil receiver, and
//     a nil *Registry hands out nil instruments. Library users who never
//     attach a registry therefore pay only an untaken branch; the serving
//     binaries attach one by default.
//
// Snapshots are deterministic: instruments are reported in sorted name
// order and quantiles are a pure function of the recorded counts, so two
// snapshots of the same state are byte-identical when marshalled.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores all updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value set by its owner. The zero value is
// ready to use; a nil Gauge ignores all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the current value by delta (gauges may go down).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets are the histogram bounds the registry hands out:
// powers of two from 1µs to ~8.4s, which brackets everything from a single
// posting lookup to a pathological scatter-gather straggler. 24 bounds
// keep a histogram at ~200 bytes of preallocated slots.
func DefaultLatencyBuckets() []time.Duration {
	bounds := make([]time.Duration, 24)
	for i := range bounds {
		bounds[i] = time.Microsecond << i
	}
	return bounds
}

// Histogram is a fixed-bucket latency histogram. Buckets are cumulative-
// style upper bounds fixed at construction; observations land in the first
// bucket whose bound is >= the value, or in the implicit overflow bucket.
// The zero value is unusable; construct through a Registry (or
// NewHistogram). A nil Histogram ignores all updates.
type Histogram struct {
	bounds []int64 // nanoseconds, ascending
	counts []atomic.Uint64
	sum    atomic.Int64
	count  atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending bucket bounds
// plus an implicit overflow bucket.
func NewHistogram(bounds []time.Duration) *Histogram {
	h := &Histogram{bounds: make([]int64, len(bounds))}
	for i, b := range bounds {
		h.bounds[i] = int64(b)
	}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// Binary search for the first bound >= ns; len(bounds) is overflow.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] >= ns {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(ns)
	h.count.Add(1)
}

// HistogramSnapshot is one histogram's point-in-time summary. Quantiles
// are upper-bound estimates: the bound of the bucket the quantile falls in
// (the overflow bucket reports the largest finite bound).
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	SumMs   float64           `json:"sumMs"`
	MeanMs  float64           `json:"meanMs"`
	P50Ms   float64           `json:"p50Ms"`
	P95Ms   float64           `json:"p95Ms"`
	P99Ms   float64           `json:"p99Ms"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one non-empty bucket: its upper bound and count.
type HistogramBucket struct {
	LeMs  float64 `json:"leMs"` // upper bound; the overflow bucket reports +Inf as 0 with Inf flag avoided: see Snapshot
	Count uint64  `json:"count"`
}

// Snapshot summarises the histogram. Counts are read bucket by bucket
// without a lock, so a snapshot racing observations may be off by the
// in-flight handful — fine for monitoring, and each bucket is itself
// consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: total, SumMs: float64(h.sum.Load()) / 1e6}
	if total == 0 {
		return s
	}
	s.MeanMs = s.SumMs / float64(total)
	s.P50Ms = h.quantile(counts, total, 0.50)
	s.P95Ms = h.quantile(counts, total, 0.95)
	s.P99Ms = h.quantile(counts, total, 0.99)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		le := float64(0)
		if i < len(h.bounds) {
			le = float64(h.bounds[i]) / 1e6
		} else {
			// Overflow bucket: report the largest finite bound (JSON has
			// no +Inf); Count landing here means "beyond the last bound".
			le = float64(h.bounds[len(h.bounds)-1]) / 1e6
		}
		s.Buckets = append(s.Buckets, HistogramBucket{LeMs: le, Count: c})
	}
	return s
}

// quantile returns the upper bound (ms) of the bucket holding the q-th
// quantile observation.
func (h *Histogram) quantile(counts []uint64, total uint64, q float64) float64 {
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen > rank {
			if i < len(h.bounds) {
				return float64(h.bounds[i]) / 1e6
			}
			return float64(h.bounds[len(h.bounds)-1]) / 1e6
		}
	}
	return float64(h.bounds[len(h.bounds)-1]) / 1e6
}

// Registry is a named collection of instruments. Lookup is
// create-or-return, so independent subsystems sharing a registry converge
// on the same instrument for the same name. A nil *Registry hands out nil
// instruments (no-ops), which is the library-user mode. Safe for
// concurrent use; lookups take a mutex, so instruments should be resolved
// once at construction, not per operation.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	funcs      map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		funcs:      make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram (default latency buckets),
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(DefaultLatencyBuckets())
		r.histograms[name] = h
	}
	return h
}

// SetHistogram registers (or replaces) a pre-existing histogram under
// name. Subsystems that must record before any registry is attached — the
// cluster's per-node latency histograms feed hedging delays, so they are
// always on — construct their own and publish them here when observability
// is enabled.
func (r *Registry) SetHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.histograms[name] = h
}

// Func registers a lazily evaluated gauge: fn runs at snapshot time.
// Re-registering a name replaces the previous function, which makes
// registration idempotent for subsystems constructed more than once over
// shared state (e.g. one engine per shard sharing one model).
func (r *Registry) Func(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot is a point-in-time copy of every registered instrument, with
// func gauges folded into Gauges. Maps marshal with sorted keys, so the
// JSON form is deterministic for fixed instrument state.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// instruments copies the instrument maps under the registry lock so
// Snapshot can read them — and evaluate func gauges — without holding it.
func (r *Registry) instruments() (map[string]*Counter, map[string]*Gauge, map[string]*Histogram, map[string]func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		histograms[n] = h
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for n, fn := range r.funcs {
		funcs[n] = fn
	}
	return counters, gauges, histograms, funcs
}

// Snapshot reads every instrument. Func gauges are evaluated outside the
// registry lock (they may read other locked state).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	counters, gauges, histograms, funcs := r.instruments()
	snap := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)+len(funcs)),
		Histograms: make(map[string]HistogramSnapshot, len(histograms)),
	}
	for n, c := range counters {
		snap.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		snap.Gauges[n] = g.Value()
	}
	for n, fn := range funcs {
		snap.Gauges[n] = fn()
	}
	for n, h := range histograms {
		snap.Histograms[n] = h.Snapshot()
	}
	return snap
}

// Names returns every registered instrument name, sorted — diagnostics
// and tests.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms)+len(r.funcs))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	for n := range r.funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
