package server

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"

	"figfusion/internal/api"
	"figfusion/internal/obs"
)

// errShed marks a request admission control rejected outright: the
// inflight slots and the bounded queue were both full.
var errShed = errors.New("server: request shed by admission control")

// admission bounds the search-family routes: at most maxInflight requests
// execute, at most maxQueue more wait for a slot, and the rest shed
// immediately with 503/unavailable + Retry-After. Shedding converts
// overload into fast, explicit rejections instead of unbounded queueing —
// the p99 of an admitted request stays bounded by queue depth × service
// time no matter how far the offered load exceeds capacity.
type admission struct {
	slots    chan struct{} // semaphore: one token per executing request
	waiters  chan struct{} // semaphore: one token per queued request
	inflight atomic.Int64
	queued   atomic.Int64
	shed     *obs.Counter // nil without a registry
}

func newAdmission(maxInflight, maxQueue int, reg *obs.Registry) *admission {
	a := &admission{
		slots:   make(chan struct{}, maxInflight),
		waiters: make(chan struct{}, maxQueue),
	}
	if reg != nil {
		a.shed = reg.Counter("server.shed.requests")
		reg.Func("server.admission.inflight", a.inflight.Load)
		reg.Func("server.admission.queued", a.queued.Load)
	}
	return a
}

// acquire claims an execution slot, queueing within the bound when all
// slots are busy. It returns errShed when the queue is also full, or
// ctx.Err() when the caller's request died while queued.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		a.inflight.Add(1)
		return nil
	default:
	}
	select {
	case a.waiters <- struct{}{}:
	default:
		if a.shed != nil {
			a.shed.Inc()
		}
		return errShed
	}
	a.queued.Add(1)
	defer func() {
		<-a.waiters
		a.queued.Add(-1)
	}()
	select {
	case a.slots <- struct{}{}:
		a.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns an execution slot.
func (a *admission) release() {
	<-a.slots
	a.inflight.Add(-1)
}

// admit gates h behind admission control when it is configured
// (Options.MaxInflight > 0). Shed requests answer the 503/unavailable
// envelope; writeError stamps the contract's Retry-After header on every
// 503.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.adm == nil {
			h(w, r)
			return
		}
		if err := s.adm.acquire(r.Context()); err != nil {
			if errors.Is(err, errShed) {
				writeError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
					"overloaded: %d requests executing and %d queued; retry with backoff",
					s.opts.MaxInflight, s.opts.MaxQueue)
			} else {
				// The client went away while queued; the envelope is a
				// formality nobody reads, but the slot accounting matters.
				writeError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
					"request abandoned while queued for admission: %v", err)
			}
			return
		}
		defer s.adm.release()
		h(w, r)
	}
}
