package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"figfusion/internal/dataset"
	"figfusion/internal/retrieval"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     int64
	scale    float64 // -seconds / baseSeconds: multiplies every phase's op count
	traced   bool
	traceOut string // span file of a traced run; "" writes none
	log      io.Writer

	// objects overrides the workload's corpus size and corrupt mangles the
	// bodies the verification step reads; only the tests set them (and
	// scales below one second).
	objects int
	corrupt func([]byte) []byte
}

// report is a finished run: the metrics of its mode plus the failure
// accounting of the driven op lists.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
}

// run executes one workload end to end: fixture copies, set-up three
// times, the drive, the correctness check. Everything it boots is torn
// down and its scratch directory removed before it returns, on every path.
func run(ctx context.Context, cfg runConfig) (rep *report, err error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	objects := w.Objects
	if cfg.objects > 0 {
		objects = cfg.objects
	}
	tmp, err := os.MkdirTemp("", "figbench-")
	if err != nil {
		return nil, err
	}
	var booted []*instance
	defer func() {
		for _, in := range booted {
			in.close()
		}
		if rerr := os.RemoveAll(tmp); rerr != nil && err == nil {
			err = rerr
		}
	}()

	// Fixtures. Every engine that ingests owns a corpus copy; generation
	// is fixture cost, reported apart from set-up.
	var generated time.Duration
	copies := 0
	corpusSet := func(n int) ([]*dataset.Dataset, error) {
		set := make([]*dataset.Dataset, n)
		for i := range set {
			t0 := time.Now()
			d, gerr := generate(objects)
			if gerr != nil {
				return nil, gerr
			}
			generated += time.Since(t0)
			copies++
			set[i] = d
		}
		return set, nil
	}
	perInstance := 1
	if w.Fleet {
		perInstance = len(fleetNodes) + 1
	}
	refSet, err := corpusSet(1)
	if err != nil {
		return nil, err
	}
	sutSet, err := corpusSet(perInstance)
	if err != nil {
		return nil, err
	}
	baseSet := sutSet // untraced: the middle repetition is never driven
	var twin *dataset.Dataset
	if cfg.traced {
		if baseSet, err = corpusSet(perInstance); err != nil {
			return nil, err
		}
		twinSet, terr := corpusSet(1)
		if terr != nil {
			return nil, terr
		}
		twin = twinSet[0]
	}
	pl, err := buildPlan(w, sutSet[0], cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	wrap := wrapFunc(noWrap)
	if cfg.traced {
		tr = newTracer(pl)
		wrap = tr.wrap
	}

	// Set-up, three times over: setup_s is the fastest repetition. The
	// last instance is the one driven. On a standalone workload the first
	// doubles as the unpruned reference of the correctness check (pruning
	// only matters at query time, so its build is the same work); a fleet
	// builds its standalone reference apart, untimed.
	setup := time.Duration(1<<63 - 1)
	boot := func(set []*dataset.Dataset, pruning retrieval.PruningMode, wrap wrapFunc) (*instance, error) {
		t0 := time.Now()
		var in *instance
		var berr error
		if w.Fleet {
			in, berr = setupFleet(ctx, set, wrap)
		} else {
			in, berr = setupStandalone(ctx, set[0], pruning, wrap)
		}
		if berr != nil {
			return nil, berr
		}
		if took := time.Since(t0); took < setup {
			setup = took
		}
		booted = append(booted, in)
		return in, nil
	}
	var ref *instance
	if w.Fleet {
		if ref, err = setupStandalone(ctx, refSet[0], retrieval.PruneOff, noWrap); err != nil {
			return nil, err
		}
		booted = append(booted, ref)
		spare, berr := boot(sutSet, retrieval.PruneBlockMax, noWrap)
		if berr != nil {
			return nil, berr
		}
		spare.close()
	} else if ref, err = boot(refSet, retrieval.PruneOff, noWrap); err != nil {
		return nil, err
	}
	base, err := boot(baseSet, retrieval.PruneBlockMax, noWrap)
	if err != nil {
		return nil, err
	}
	sut, err := boot(sutSet, retrieval.PruneBlockMax, wrap)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "generated %d corpus copies of %d objects in %.2f s; fastest of 3 set-ups %.2f s\n", copies, objects, generated.Seconds(), setup.Seconds())

	// A traced run drives the middle instance first, untraced, over the
	// same op lists from the same cold state: the baseline of
	// trace.overhead_pct.
	layers := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		layers[m.Name] = 0 // a layer this deployment lacks reads 0
	}
	var baseline *driveResult
	if cfg.traced {
		bd := newDriver(base, pl, cfg.scale, nil, cfg.log)
		baseline, err = bd.drive(ctx)
		bd.close()
		if err != nil {
			return nil, err
		}
		if w.Fleet {
			if err := fleetLayerPass(ctx, tr, base, pl, layers); err != nil {
				return nil, err
			}
		}
	}
	base.close()

	d := newDriver(sut, pl, cfg.scale, tr, cfg.log)
	driven, err := d.drive(ctx)
	d.close()
	if err != nil {
		return nil, err
	}
	snapshot, err := sut.snapshotBytes()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	pAt10, err := verify(ctx, sut, ref, pl, refSet[0], objects, cfg.corrupt)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "verified %d ta and %d search answers against the unpruned reference in %.2f s\n", len(pl.Verify), verifySearches, time.Since(t0).Seconds())
	if driven.calib[0] > 0 {
		fmt.Fprintf(cfg.log, "host calibration kernel: %.1f ms before, %.1f ms after the timed phases\n", driven.calib[0], driven.calib[1])
	}

	rep = &report{}
	rep.attempted, rep.failed = driven.attemptedFailed()
	if !cfg.traced {
		rep.metrics, err = endToEndMetrics(setup, driven, snapshot, pAt10)
		return rep, err
	}
	if err := tr.checkContainment(); err != nil {
		return nil, err
	}
	if err := layerPass(tr, twin, pl, tmp, layers); err != nil {
		return nil, err
	}
	layers["dataset.generate_ms"] = msPer(generated, copies)
	servedLayerMetrics(layers, sut, tr, baseline, driven, cfg.log)
	if cfg.traceOut != "" {
		if err := tr.writeSpans(cfg.traceOut); err != nil {
			return nil, err
		}
	}
	rep.metrics = layers
	return rep, nil
}
