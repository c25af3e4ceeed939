package index

import (
	"fmt"
	"io"
	"time"

	"figfusion/internal/par"
)

// Save writes the index to w in the binary segment format (segment.go).
// Combined with the dataset's own Save, a deployment can persist
// everything a serving engine needs and skip the O(|D|) clique enumeration
// at startup. Entries are emitted in clique-key order so the same index
// always serializes to the same bytes. Freshness is judged against the
// index's own last refresh generation — correct for an index that hears
// about every model invalidation (Build, or Insert on a single-index
// engine); sharded indexes must use SaveAt.
func (inv *Inverted) Save(w io.Writer) error {
	return inv.SaveAt(w, inv.gen)
}

// SaveAt is Save with the freshness authority made explicit: a row is
// persisted as fresh iff its CorS was computed at generation gen. A shard
// of a partitioned index only refreshes its own entries when an insert
// routes to it, so its internal refresh generation lags the shared model
// whenever another shard ingested last — judging freshness against the lag
// would resurrect weights of an intermediate corpus state as authoritative
// on Load. Callers holding a corpus-global model pass m.Generation().
func (inv *Inverted) SaveAt(w io.Writer, gen uint64) error {
	return inv.writeSegment(w, gen)
}

// LoadStats records how an index was brought into memory, for the
// cold-start benchmark and the obs load gauges. Nil on built (not loaded)
// indexes.
type LoadStats struct {
	Bytes      int64   // snapshot size
	WallMillis float64 // wall time of the load
	Workers    int     // resolved loader fan-out
}

// LoadStats returns how this index was loaded, or nil if it was built.
func (inv *Inverted) LoadStats() *LoadStats {
	return inv.loadStats
}

// Load reads an index written by Save (see LoadWorkers).
func Load(r io.Reader) (*Inverted, error) {
	return LoadWorkers(r, 0)
}

// LoadWorkers reads a binary segment snapshot (the format Save writes)
// through the parallel segment loader with the given fan-out (0 = NumCPU,
// 1 = serial); the result is independent of the worker count. Input that
// does not start with the segment magic is rejected before anything is
// decoded.
//
// The FID space must match the corpus the index was built over; Load
// cannot verify that, so pair index files with their dataset files.
// Entries that were fresh at save time are stamped with generation 0 —
// valid for a freshly constructed model over the paired dataset, whose
// generation counter starts at 0. Entries that were already stale when
// saved keep a never-matching stamp, so the indexed search paths recompute
// their weights through the scorer.
func LoadWorkers(r io.Reader, workers int) (*Inverted, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: read snapshot: %w", err)
	}
	start := time.Now()
	inv, err := readSegment(data, workers)
	if err != nil {
		return nil, err
	}
	inv.loadStats = &LoadStats{
		Bytes:      int64(len(data)),
		WallMillis: float64(time.Since(start)) / float64(time.Millisecond),
		Workers:    par.Workers(workers, len(inv.entries)),
	}
	return inv, nil
}

// InspectSnapshot summarises a segment snapshot without building a
// servable index: header fields, entry/posting/block totals, per-section
// sizes and checksum status.
func InspectSnapshot(r io.Reader) (*SnapshotInfo, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: read snapshot: %w", err)
	}
	return inspectSegment(data)
}
