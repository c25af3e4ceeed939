package obs

import (
	"sync"
	"time"
)

// Stage is one phase of a query's life. The retrieval engine records the
// four pipeline stages of an indexed search; the scan path has no gather
// and the TA path folds its threshold merge into StageMerge.
type Stage int

const (
	// StagePrepare is the query-side work: FIG construction, clique
	// enumeration, MRF compile.
	StagePrepare Stage = iota
	// StageGather is candidate generation: posting-list lookup and the
	// multi-way candidate merge (per-shard in sharded mode).
	StageGather
	// StageScore is per-candidate MRF scoring.
	StageScore
	// StageMerge is the top-k fold: partial-heap merge or TA threshold
	// merge.
	StageMerge
	// NumStages bounds per-stage arrays.
	NumStages
)

// String names the stage for snapshots and metric suffixes.
func (s Stage) String() string {
	switch s {
	case StagePrepare:
		return "prepare"
	case StageGather:
		return "gather"
	case StageScore:
		return "score"
	case StageMerge:
		return "merge"
	}
	return "unknown"
}

// Query paths a trace can record.
const (
	PathIndex = "index" // exact indexed search (Algorithm 1 candidates, full MRF score)
	PathTA    = "ta"    // literal Algorithm 1 threshold merge
	PathScan  = "scan"  // sequential full-corpus scan
)

// QueryTrace accumulates one query's stage timings. It is a plain value
// the engine keeps on the stack of the search call — no allocation, no
// locking — and hands to SlowLog.Record / metric sinks when the query
// finishes. All methods are nil-safe so the disabled path pays only the
// nil check.
type QueryTrace struct {
	Path       string
	Candidates int
	// PruneBlocks counts posting blocks the lazy TA merge never
	// materialised. Zero when pruning is off.
	PruneBlocks int
	Stages      [NumStages]time.Duration
	Total       time.Duration
	start       time.Time
}

// NewTrace starts a trace for one query on the given path.
func NewTrace(path string) *QueryTrace {
	return &QueryTrace{Path: path, start: time.Now()}
}

// Begin marks the start of a stage span. On a nil trace it returns the
// zero time without consulting the clock.
func (t *QueryTrace) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// End accrues the span since start into the given stage. Stages may be
// ended multiple times; spans accumulate.
func (t *QueryTrace) End(s Stage, start time.Time) {
	if t == nil {
		return
	}
	t.Stages[s] += time.Since(start)
}

// Add accrues a span that was timed before the trace opened — the prepare
// stage of a prepared search — into the stage and, by moving the trace's
// start back, into the total Finish stamps.
func (t *QueryTrace) Add(s Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.Stages[s] += d
	t.start = t.start.Add(-d)
}

// AddPruneBlocks accrues posting blocks the lazy TA merge skipped —
// blocks whose upper bound never reached the merge frontier before the
// threshold terminated.
func (t *QueryTrace) AddPruneBlocks(n int) {
	if t == nil {
		return
	}
	t.PruneBlocks += n
}

// SetCandidates records how many candidates received the full score.
func (t *QueryTrace) SetCandidates(n int) {
	if t == nil {
		return
	}
	t.Candidates = n
}

// Finish stamps the wall-clock total.
func (t *QueryTrace) Finish() {
	if t == nil {
		return
	}
	t.Total = time.Since(t.start)
}

// SlowQuery is one slow-log entry: a finished trace flattened for JSON.
type SlowQuery struct {
	Path       string  `json:"path"`
	Candidates int     `json:"candidates"`
	TotalMs    float64 `json:"totalMs"`
	PrepareMs  float64 `json:"prepareMs"`
	GatherMs   float64 `json:"gatherMs"`
	ScoreMs    float64 `json:"scoreMs"`
	MergeMs    float64 `json:"mergeMs"`
}

// SlowLog keeps the most recent queries slower than a threshold in a
// bounded ring. Record is called at the end of every instrumented query,
// so the fast path is one duration compare; only actually-slow queries
// take the mutex. A nil SlowLog drops everything.
type SlowLog struct {
	threshold time.Duration

	mu      sync.Mutex
	entries []SlowQuery
	next    int
	filled  bool
	total   uint64
}

// NewSlowLog returns a log keeping the last capacity queries at or above
// threshold. Capacity is clamped to at least 1.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SlowLog{threshold: threshold, entries: make([]SlowQuery, capacity)}
}

// Threshold returns the slow-query cutoff.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Record files a finished trace if it crossed the threshold.
func (l *SlowLog) Record(t *QueryTrace) {
	if l == nil || t == nil || t.Total < l.threshold {
		return
	}
	sq := SlowQuery{
		Path:       t.Path,
		Candidates: t.Candidates,
		TotalMs:    float64(t.Total) / 1e6,
		PrepareMs:  float64(t.Stages[StagePrepare]) / 1e6,
		GatherMs:   float64(t.Stages[StageGather]) / 1e6,
		ScoreMs:    float64(t.Stages[StageScore]) / 1e6,
		MergeMs:    float64(t.Stages[StageMerge]) / 1e6,
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries[l.next] = sq
	l.next++
	if l.next == len(l.entries) {
		l.next = 0
		l.filled = true
	}
	l.total++
}

// Snapshot returns the retained slow queries, most recent first, plus the
// total number ever recorded (retained or evicted).
func (l *SlowLog) Snapshot() ([]SlowQuery, uint64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.filled {
		n = len(l.entries)
	}
	out := make([]SlowQuery, 0, n)
	for i := 0; i < n; i++ {
		idx := l.next - 1 - i
		if idx < 0 {
			idx += len(l.entries)
		}
		out = append(out, l.entries[idx])
	}
	return out, l.total
}
