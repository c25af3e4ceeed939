package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"figfusion/internal/api"
	"figfusion/internal/client"
	"figfusion/internal/obs"
)

// maxFailedShare aborts a drive once more than this share of the plan's
// ops has failed: latencies of a broken system are not worth reporting.
const maxFailedShare = 0.01

// regSnap is one reading of an instance's registries.
type regSnap struct {
	front   obs.Snapshot
	engines []obs.Snapshot
}

func snapRegistries(in *instance) regSnap {
	s := regSnap{front: in.front.Registry().Snapshot()}
	for _, r := range in.engineRegistries() {
		s.engines = append(s.engines, r.Snapshot())
	}
	return s
}

// gauge sums a gauge, counter a counter and histSum a histogram's exact
// SumMs over the engine registries.
func (s regSnap) gauge(name string) (v int64) {
	for _, e := range s.engines {
		v += e.Gauges[name]
	}
	return v
}

func (s regSnap) counter(name string) (v uint64) {
	for _, e := range s.engines {
		v += e.Counters[name]
	}
	return v
}

func (s regSnap) histSum(name string) (v float64) {
	for _, e := range s.engines {
		v += e.Histograms[name].SumMs
	}
	return v
}

// phaseResult is what one phase of a drive measured.
type phaseResult struct {
	ph      *phase
	wall    time.Duration
	cpu     time.Duration
	ok      int
	failed  int
	latency [3][]float64 // ms per successful op, by opKind

	// Traced drives only.
	before, after regSnap
	mem           memDelta
}

type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

// driveResult is one full pass of the plan over one instance.
type driveResult struct {
	phases []*phaseResult
	heapMB float64
	calib  [2]float64 // host calibration kernel before and after the timed phases, ms

	// Traced drives only.
	atHeap    regSnap // registries when the heap was read
	queuedMax int64
}

func (d *driveResult) attemptedFailed() (attempted, failed int) {
	for _, p := range d.phases {
		attempted += p.ok + p.failed
		failed += p.failed
	}
	return attempted, failed
}

// driver runs a plan against an instance from two closed-loop clients.
type driver struct {
	in      *instance
	pl      *plan
	scale   float64 // sizes the host calibration kernel
	tracer  *tracer // nil: untraced
	log     io.Writer
	clients [numClients]*client.Client

	failed       atomic.Int64
	firstFailure sync.Once
	failure      error
}

// newDriver connects the two clients, one connection each. Sheds must
// surface as failures, so the client never retries. An untraced drive
// uses internal/client's own transport; a traced one puts the benchmark's
// transport, with the same pool settings, under it.
func newDriver(in *instance, pl *plan, scale float64, t *tracer, log io.Writer) *driver {
	d := &driver{in: in, pl: pl, scale: scale, tracer: t, log: log}
	for i := range d.clients {
		opts := []client.Option{client.WithRetries(0)}
		if t != nil {
			opts = append(opts, client.WithHTTPClient(&http.Client{Transport: &transport{
				base:   &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second},
				tracer: t,
			}}))
		}
		d.clients[i] = client.New(in.base, opts...)
	}
	return d
}

func (d *driver) close() {
	for _, c := range d.clients {
		_ = c.Close()
	}
}

// checkRead is the per-op verification of a read: exactly k hits from the
// whole corpus, best first, without the excluded query object.
func checkRead(o op, resp *api.WireSearchResponse) error {
	if resp.Partial {
		return errors.New("partial answer")
	}
	if len(resp.Results) != topK {
		return fmt.Errorf("%d hits, want %d", len(resp.Results), topK)
	}
	for i, it := range resp.Results {
		if it.ID == o.Query {
			return fmt.Errorf("hit %d is the excluded query object", i)
		}
		if i > 0 && it.Score > resp.Results[i-1].Score {
			return fmt.Errorf("hit %d outscores hit %d", i, i-1)
		}
	}
	return nil
}

// do runs one op and reports its client-observed latency. An op that
// errors, is shed, answers short or fails its check is a failure and
// yields no latency sample.
func (d *driver) do(ctx context.Context, c *client.Client, id int, o op) (time.Duration, error) {
	var start int64
	if d.tracer != nil {
		ctx = withOp(ctx, id)
		start = d.tracer.now()
	}
	t0 := time.Now()
	var err error
	if o.Kind == opInsert {
		var resp *api.InsertResponse
		if resp, err = c.Insert(ctx, o.Insert); err == nil && resp.ID != o.Query {
			err = fmt.Errorf("assigned id %d, want %d", resp.ID, o.Query)
		}
	} else {
		var resp *api.WireSearchResponse
		if resp, err = c.Search(ctx, o.request()); err == nil {
			err = checkRead(o, resp)
		}
	}
	took := time.Since(t0)
	if d.tracer != nil {
		d.tracer.record(d.tracer.clientID(id), 0, "client", id, start, d.tracer.now())
	}
	return took, err
}

// fail counts a failed op and reports whether the drive must abort.
func (d *driver) fail(o op, err error) bool {
	d.firstFailure.Do(func() { d.failure = fmt.Errorf("%s: %w", o, err) })
	return float64(d.failed.Add(1)) > maxFailedShare*float64(d.pl.Total)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase executes one phase: each client works through its share of the
// op list in order, the next request leaving only when the last returned.
func (d *driver) runPhase(ctx context.Context, ph *phase) (*phaseResult, error) {
	res := &phaseResult{ph: ph}
	var shares [numClients][]int
	for i := range ph.Ops {
		c := ph.clientOf(i)
		shares[c] = append(shares[c], i)
	}
	type clientOut struct {
		latency    [3][]float64
		ok, failed int
	}
	var outs [numClients]clientOut
	var aborted atomic.Bool
	var m0, m1 runtime.MemStats
	if d.tracer != nil {
		res.before = snapRegistries(d.in)
		runtime.ReadMemStats(&m0)
	}
	cpu0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := range shares {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			for _, i := range shares[c] {
				if aborted.Load() || ctx.Err() != nil {
					return
				}
				o := ph.Ops[i]
				took, err := d.do(ctx, d.clients[c], ph.First+i, o)
				if err != nil {
					out.failed++
					if d.fail(o, err) {
						aborted.Store(true)
					}
					continue
				}
				out.ok++
				out.latency[o.Kind] = append(out.latency[o.Kind], float64(took)/1e6)
			}
		}(c)
	}
	wg.Wait()
	res.wall, res.cpu = time.Since(t0), cpuTime()-cpu0
	if d.tracer != nil {
		runtime.ReadMemStats(&m1)
		res.mem = memDelta{m1.TotalAlloc - m0.TotalAlloc, m1.NumGC - m0.NumGC, m1.PauseTotalNs - m0.PauseTotalNs}
		res.after = snapRegistries(d.in)
	}
	for _, out := range outs {
		res.ok += out.ok
		res.failed += out.failed
		for k := range out.latency {
			res.latency[k] = append(res.latency[k], out.latency[k]...)
		}
	}
	if aborted.Load() {
		return res, fmt.Errorf("aborted in phase %s: %d ops failed, more than %.0f%% of the %d planned; first failure: %w",
			ph.Name, d.failed.Load(), 100*maxFailedShare, d.pl.Total, d.failure)
	}
	return res, ctx.Err()
}

// calibrate times a fixed two-goroutine kernel of dependent random loads
// over 64 MB — memory-bound like the scorer's cache lookups, because this
// host's disturbances are: in a slow period set-up and queries run 30–40%
// longer while a register-only loop moves 3%. About 15 ms per second of
// -seconds on the reference host, after ~50 ms to fill the table. It measures the host, not the program:
// two readings that differ, or a reading far from another run's, explain
// a noisy run.
func calibrate(scale float64) float64 {
	const words = 1 << 24
	table := make([]uint32, words)
	for i := range table {
		table[i] = uint32(i) * 2654435761
	}
	loads := int(750_000 * scale)
	t0 := time.Now()
	var wg sync.WaitGroup
	var sink atomic.Uint64
	for g := 0; g < numClients; g++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			for i := 0; i < loads; i++ {
				x = x*6364136223846793005 + uint64(table[x>>40])
			}
			sink.Add(x)
		}(uint64(g) + 0x9e3779b97f4a7c15)
	}
	wg.Wait()
	return float64(time.Since(t0)) / 1e6
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// drive runs every phase of the plan in order, calibrating the host
// around the timed phases and reading the heap after the phase marked for
// it.
func (d *driver) drive(ctx context.Context) (*driveResult, error) {
	res := &driveResult{}
	calibrated := false
	for i := range d.pl.Phases {
		ph := &d.pl.Phases[i]
		if !calibrated && (ph.Throughput || ph.Latency) {
			res.calib[0] = calibrate(d.scale)
			calibrated = true
		}
		stopSampler := func() {}
		if d.tracer != nil && (d.in.engine == nil || (ph.Kind != mixed && ph.Kind != inserts)) {
			stopSampler = d.sampleQueue(res)
		}
		pr, err := d.runPhase(ctx, ph)
		stopSampler()
		res.phases = append(res.phases, pr)
		fmt.Fprintf(d.log, "phase %-12s %7d ops in %6.2f s\n", ph.Name, pr.ok+pr.failed, pr.wall.Seconds())
		if err != nil {
			return res, err
		}
		if ph.HeapAfter {
			res.heapMB = heapMB()
			if d.tracer != nil {
				res.atHeap = snapRegistries(d.in)
			}
		}
	}
	res.calib[1] = calibrate(d.scale)
	return res, nil
}

// sampleQueue polls the admission queue depth gauge while a phase runs and
// keeps the maximum; the returned func stops the sampler and waits. The
// gauge is only readable through a registry snapshot, and a snapshot of a
// standalone server's registry reads the index's maps unlocked (the
// index.resident.bytes gauge) — a data race with a concurrent insert that
// crashes the process — so drive never samples a standalone server during
// a phase that inserts.
func (d *driver) sampleQueue(res *driveResult) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if q := d.in.front.Registry().Snapshot().Gauges["server.admission.queued"]; q > res.queuedMax {
					res.queuedMax = q
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
