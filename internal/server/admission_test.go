package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"figfusion/internal/api"
	"figfusion/internal/obs"
)

// TestAdmissionShed: with every slot and queue position held, acquire
// sheds immediately with errShed and counts it; releasing a slot readmits.
func TestAdmissionShed(t *testing.T) {
	reg := obs.NewRegistry()
	a := newAdmission(1, 1, reg)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Occupy the single queue position.
	queued := make(chan error, 1)
	entered := make(chan struct{})
	go func() {
		close(entered)
		queued <- a.acquire(context.Background())
	}()
	<-entered
	// Spin until the waiter holds the queue token: acquire is non-blocking
	// on the shed path, so once queued reads 1 the next acquire must shed.
	for a.queued.Load() != 1 {
		runtime.Gosched()
	}
	if err := a.acquire(context.Background()); !errors.Is(err, errShed) {
		t.Fatalf("acquire = %v, want errShed", err)
	}
	if got := reg.Counter("server.shed.requests").Value(); got != 1 {
		t.Errorf("server.shed.requests = %d, want 1", got)
	}
	// Release the executing request: the queued waiter gets the slot.
	a.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire = %v", err)
	}
	a.release()

	// A waiter whose request dies while queued surfaces ctx.Err() and is
	// not counted as shed — the server did not reject it, the client left.
	reg2 := obs.NewRegistry()
	a2 := newAdmission(1, 1, reg2)
	if err := a2.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a2.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v", err)
	}
	if got := reg2.Counter("server.shed.requests").Value(); got != 0 {
		t.Errorf("cancelled waiter counted as shed (%d)", got)
	}
	a2.release()
}

// TestAdmissionShedHTTP drives the admit middleware to saturation: with
// one slot, no queue and a handler parked on a channel, every concurrent
// request sheds with the 503/unavailable envelope and Retry-After, and
// server.shed.requests counts each one.
func TestAdmissionShedHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	s := &Server{
		opts: Options{MaxInflight: 1, MaxQueue: 0},
		adm:  newAdmission(1, 0, reg),
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	h := s.admit(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	first := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", "/v1/search?id=1&k=3", nil))
		first <- rec.Code
	}()
	<-entered // the slot is now held
	const burst = 4
	var wg sync.WaitGroup
	codes := make([]int, burst)
	retryAfter := make([]string, burst)
	envelopes := make([]api.ErrorResponse, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h(rec, httptest.NewRequest("GET", "/v1/search?id=1&k=3", nil))
			codes[i] = rec.Code
			retryAfter[i] = rec.Header().Get("Retry-After")
			if err := json.Unmarshal(rec.Body.Bytes(), &envelopes[i]); err != nil {
				t.Errorf("burst %d: bad JSON %q: %v", i, rec.Body.String(), err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < burst; i++ {
		if codes[i] != http.StatusServiceUnavailable {
			t.Errorf("burst %d: status = %d, want 503", i, codes[i])
			continue
		}
		if envelopes[i].Error.Code != api.CodeUnavailable {
			t.Errorf("burst %d: code = %q, want %q", i, envelopes[i].Error.Code, api.CodeUnavailable)
		}
		if retryAfter[i] == "" {
			t.Errorf("burst %d: shed 503 missing Retry-After", i)
		}
	}
	if got := reg.Counter("server.shed.requests").Value(); got != burst {
		t.Errorf("server.shed.requests = %d, want %d", got, burst)
	}
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Errorf("admitted request status = %d", code)
	}
}
