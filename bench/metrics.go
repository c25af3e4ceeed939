package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank p-th percentile of vals.
func percentile(vals []float64, p float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method),
// so a -repeat spread reads the same as the driver's.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// latencies pools the client-observed latencies of one op kind over the
// latency phases; an insert's counts only where inserts run alone.
func latencies(dr *driveResult, kind opKind) []float64 {
	var out []float64
	for _, p := range dr.phases {
		if p.ph.Latency && (kind != opInsert || p.ph.Kind == inserts) {
			out = append(out, p.latency[kind]...)
		}
	}
	return out
}

// throughput totals the throughput phases: ops answered correctly, wall
// and process CPU time.
func throughput(dr *driveResult) (ops int, wall, cpu time.Duration) {
	for _, p := range dr.phases {
		if p.ph.Throughput {
			ops += p.ok
			wall += p.wall
			cpu += p.cpu
		}
	}
	return ops, wall, cpu
}

// endToEndMetrics derives the gated metrics of an untraced run.
func endToEndMetrics(setup time.Duration, dr *driveResult, snapshotBytes int64, pAt10 float64) (map[string]float64, error) {
	m := map[string]float64{
		"setup_s":     setup.Seconds(),
		"heap_mb":     dr.heapMB,
		"snapshot_mb": float64(snapshotBytes) / (1 << 20),
		"p_at_10":     pAt10,
	}
	for _, l := range []struct {
		kind opKind
		p50  string
		p90  string
	}{
		{opSearch, "search_p50_ms", "search_p90_ms"},
		{opTA, "ta_p50_ms", "ta_p90_ms"},
		{opInsert, "insert_p50_ms", ""},
	} {
		lat := latencies(dr, l.kind)
		if len(lat) == 0 {
			return nil, fmt.Errorf("no %s op succeeded: no latency to report", l.kind)
		}
		m[l.p50] = median(lat)
		if l.p90 != "" {
			m[l.p90] = percentile(lat, 90)
		}
	}
	ops, wall, cpu := throughput(dr)
	if ops == 0 {
		return nil, fmt.Errorf("no op of the throughput phases succeeded")
	}
	m["ops_per_s"] = float64(ops) / wall.Seconds()
	m["cpu_ms_per_op"] = float64(cpu) / 1e6 / float64(ops)
	return m, nil
}

// phaseDelta sums after−before of one registry reading over phases.
func phaseDelta(phases []*phaseResult, read func(regSnap) float64) (v float64) {
	for _, p := range phases {
		v += read(p.after) - read(p.before)
	}
	return v
}

// pathPhases picks the phases that isolate one engine path: the timed
// ones when the workload has them, else the warm-up's.
func pathPhases(dr *driveResult, path string) []*phaseResult {
	var timed, warm []*phaseResult
	for _, p := range dr.phases {
		switch {
		case p.ph.Path != path:
		case p.ph.Latency || p.ph.Throughput:
			timed = append(timed, p)
		default:
			warm = append(warm, p)
		}
	}
	if len(timed) > 0 {
		return timed
	}
	return warm
}

func ratio(num, den float64) float64 {
	//figlint:allow floatcmp -- an exact zero: a count or sum nothing was added to
	if den == 0 {
		return 0
	}
	return num / den
}

// servedLayerMetrics derives the per-layer metrics that come from the
// served, traced drive: span means and self times, and before/after deltas
// of the program's own registries (exact SumMs and counts). base is the
// untraced drive of the twin instance.
func servedLayerMetrics(out map[string]float64, sut *instance, t *tracer, base, dr *driveResult, log io.Writer) {
	var thr []*phaseResult
	for _, p := range dr.phases {
		if p.ph.Throughput {
			thr = append(thr, p)
		}
	}
	opsN, wall, _ := throughput(dr)
	ops := float64(opsN)
	gauge := func(name string) func(regSnap) float64 {
		return func(s regSnap) float64 { return float64(s.gauge(name)) }
	}
	counter := func(name string) func(regSnap) float64 {
		return func(s regSnap) float64 { return float64(s.counter(name)) }
	}
	histSum := func(name string) func(regSnap) float64 {
		return func(s regSnap) float64 { return s.histSum(name) }
	}
	front := func(name string) func(regSnap) float64 {
		return func(s regSnap) float64 { return float64(s.front.Counters[name]) }
	}
	frontSum := func(name string) func(regSnap) float64 {
		return func(s regSnap) float64 { return s.front.Histograms[name].SumMs }
	}
	frontCount := func(name string) func(regSnap) float64 {
		return func(s regSnap) float64 { return float64(s.front.Histograms[name].Count) }
	}

	out["corr.cosine_misses_per_op"] = ratio(phaseDelta(thr, gauge("cache.cosine.misses")), ops)
	out["mrf.cors_misses_per_op"] = ratio(phaseDelta(thr, gauge("cache.cors.misses")), ops)
	out["mrf.smooth_misses_per_op"] = ratio(phaseDelta(thr, gauge("cache.smooth.misses")), ops)
	// Every insert drops the smoothing cache and every miss stores one
	// entry, so what it holds when the heap is read is the fills since the
	// last phase that inserted (the heap is never read inside one).
	var lastWrite regSnap
	for _, p := range dr.phases {
		if p.ph.Kind == mixed || p.ph.Kind == inserts {
			lastWrite = p.after
		}
		if p.ph.HeapAfter {
			break
		}
	}
	out["mrf.smooth_entries"] = float64(dr.atHeap.gauge("cache.smooth.misses") - lastWrite.gauge("cache.smooth.misses"))
	cliques, postings := sut.indexCounts()
	out["index.cliques"] = float64(cliques)
	out["index.postings"] = float64(postings)
	out["index.resident_mb"] = float64(dr.atHeap.gauge("index.resident.bytes")) / (1 << 20)

	// Per-path engine stages: the program's stage histograms pool both
	// paths, so each path is read over the phases that run it alone.
	for _, path := range []string{"search", "ta"} {
		phases := pathPhases(dr, path)
		pathCounter := "retrieval.search.path.ta"
		if path == "search" {
			pathCounter = "retrieval.search.path.index"
		}
		queries := phaseDelta(phases, counter(pathCounter))
		for _, stage := range []string{"prepare", "gather", "score", "merge"} {
			out["retrieval.stage_"+stage+"_ms."+path] = ratio(phaseDelta(phases, histSum("retrieval.stage."+stage)), queries)
		}
		out["retrieval.candidates_per_"+path] = ratio(phaseDelta(phases, counter("retrieval.candidates.scored")), queries)
		if path == "ta" {
			out["retrieval.prune_blocks_skipped_per_ta"] = ratio(phaseDelta(phases, counter("retrieval.prune.blocks.skipped")), queries)
		}
	}
	skipped := phaseDelta(thr, counter("retrieval.prune.candidates.skipped"))
	out["retrieval.prune_skip_ratio"] = ratio(skipped, skipped+phaseDelta(thr, counter("retrieval.prune.candidates.admitted")))

	// The scatter layers exist on a fleet alone; elsewhere they read 0.
	nodeSearches := phaseDelta(thr, counter("shard.search.total"))
	out["shard.search_ms"] = ratio(phaseDelta(thr, histSum("shard.prepare.latency"))+phaseDelta(thr, histSum("shard.fanout.latency")), nodeSearches)
	out["shard.fanout_ms"] = ratio(phaseDelta(thr, histSum("shard.fanout.latency")), nodeSearches)
	out["shard.straggler_ms"] = ratio(phaseDelta(thr, histSum("shard.straggler.gap")), nodeSearches)
	out["cluster.fanout_ms"] = ratio(phaseDelta(thr, frontSum("cluster.fanout.latency")), phaseDelta(thr, frontCount("cluster.fanout.latency")))
	out["cluster.straggler_ms"] = ratio(phaseDelta(thr, frontSum("cluster.straggler.gap")), phaseDelta(thr, frontCount("cluster.straggler.gap")))
	out["cluster.hedges_fired"] = phaseDelta(thr, front("cluster.hedge.fired"))
	out["cluster.node_errors"] = phaseDelta(thr, front("cluster.node.errors"))

	hits, misses, shared := phaseDelta(thr, front("server.coalesce.hits")), phaseDelta(thr, front("server.coalesce.misses")), phaseDelta(thr, front("server.coalesce.shared"))
	out["server.coalesce_hit_ratio"] = ratio(hits, hits+misses+shared)
	out["server.coalesce_shared"] = shared
	out["server.coalesce_entries"] = float64(dr.atHeap.front.Gauges["server.coalesce.entries"])
	out["server.shed_requests"] = phaseDelta(thr, front("server.shed.requests"))
	out["server.admission_queued_max"] = float64(dr.queuedMax)

	var alloc, pause float64
	var cycles uint32
	for _, p := range thr {
		alloc += float64(p.mem.allocBytes)
		pause += float64(p.mem.gcPauseNs)
		cycles += p.mem.gcCycles
	}
	out["runtime.alloc_kb_per_op"] = ratio(alloc/1024, ops)
	out["runtime.gc_cycles"] = float64(cycles)
	out["runtime.gc_pause_ms"] = pause / 1e6

	out["host.calib_ms"] = (dr.calib[0] + dr.calib[1]) / 2
	if math.Abs(dr.calib[0]-dr.calib[1]) > 0.15*math.Min(dr.calib[0], dr.calib[1]) {
		out["host.disturbed"] = 1
	}

	baseOps, baseWall, _ := throughput(base)
	out["trace.overhead_pct"] = 100 * (ratio(float64(baseOps)/baseWall.Seconds(), ops/wall.Seconds()) - 1)
	spanMetrics(out, t, dr, len(sut.nodes) > 0, log)
}

// spanMetrics derives the client and server layers from the spans of the
// timed reads: a layer's self time is its span minus the part of it its
// children cover. The front server's children are the nodes' spans on a
// fleet; on a standalone server the engine is inside the program, so its
// own latency histogram stands in for the child span.
func spanMetrics(out map[string]float64, t *tracer, dr *driveResult, fleet bool, log io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out["trace.spans"] = float64(len(t.spans))
	if n := t.bodies.Load(); n > 0 {
		out["api.request_bytes"] = float64(t.reqBytes.Load()) / float64(n)
		out["api.response_bytes"] = float64(t.respBytes.Load()) / float64(n)
	}

	// Which ops count: reads of latency or throughput phases; inserts of
	// the same phases feed cluster.insert_ms.
	const (
		skip = iota
		read
		insert
	)
	class := make([]uint8, t.total)
	phaseOf := make([]int, t.total)
	for pi, p := range dr.phases {
		if !p.ph.Latency && !p.ph.Throughput {
			continue
		}
		for i, o := range p.ph.Ops {
			phaseOf[p.ph.First+i] = pi
			if o.Kind == opInsert {
				class[p.ph.First+i] = insert
			} else {
				class[p.ph.First+i] = read
			}
		}
	}
	type opSpans struct {
		client, server float64 // ms
		kids           [][2]int64
		serverStart    int64
		serverEnd      int64
	}
	per := make([]opSpans, t.total)
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name != "client" {
			continue // layer-pass span
		}
		o := &per[s.Op]
		switch {
		case s.Name == "client":
			o.client = s.ms()
		case s.Name == "server":
			o.server, o.serverStart, o.serverEnd = s.ms(), s.Start, s.End
		default:
			o.kids = append(o.kids, [2]int64{s.Start, s.End})
		}
	}
	var reads, inserts int
	var roundtrip, handler, covered, insertMs float64
	perPhase := make(map[int]*[2]float64) // phase → {client ms, reads}
	for id := range per {
		o := &per[id]
		switch class[id] {
		case read:
			reads++
			roundtrip += o.client
			handler += o.server
			covered += coveredMs(o.kids, o.serverStart, o.serverEnd)
			pp := perPhase[phaseOf[id]]
			if pp == nil {
				pp = new([2]float64)
				perPhase[phaseOf[id]] = pp
			}
			pp[0] += o.client
			pp[1]++
		case insert:
			inserts++
			insertMs += o.server
		}
	}
	n := float64(reads)
	out["client.roundtrip_ms"] = ratio(roundtrip, n)
	out["client.self_ms"] = ratio(roundtrip-handler, n)
	out["server.handler_ms"] = ratio(handler, n)
	var timed []*phaseResult
	for _, p := range dr.phases {
		if p.ph.Latency || p.ph.Throughput {
			timed = append(timed, p)
		}
	}
	if fleet {
		out["cluster.insert_ms"] = ratio(insertMs, float64(inserts))
	} else {
		covered = phaseDelta(timed, func(s regSnap) float64 { return s.histSum("retrieval.search.latency") })
	}
	out["server.self_ms"] = ratio(handler-covered, n)

	// The budget: on a phase that runs one path alone, the engine's stage
	// means plus the server's and the client's self time should add up to
	// the latency the client saw.
	for pi, p := range dr.phases {
		pp := perPhase[pi]
		if pp == nil || p.ph.Path == "" || fleet {
			continue
		}
		stages := 0.0
		for _, stage := range []string{"prepare", "gather", "score", "merge"} {
			stages += out["retrieval.stage_"+stage+"_ms."+p.ph.Path]
		}
		sum, seen := stages+out["server.self_ms"]+out["client.self_ms"], pp[0]/pp[1]
		fmt.Fprintf(log, "budget %-12s stages %.3f + server.self %.3f + client.self %.3f = %.3f ms; client saw %.3f ms (%+.1f%%)\n",
			p.ph.Name, stages, out["server.self_ms"], out["client.self_ms"], sum, seen, 100*(sum/seen-1))
	}
}

// coveredMs is the length of the union of the child intervals, clipped to
// [lo, hi], in milliseconds.
func coveredMs(kids [][2]int64, lo, hi int64) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	var total, end int64 = 0, lo
	for _, k := range kids {
		s, e := k[0], k[1]
		if s < end {
			s = end
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			end = e
		}
	}
	return float64(total) / 1e6
}
