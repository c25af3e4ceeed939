// Snapshots: the one persisted form of a router, on disk and on the wire.
// A snapshot is one JSON manifest line followed by each shard's FSG1
// segment (index.SaveAt), length-prefixed. Router.Save writes it to a file
// through atomicfile — one rename, so a crash leaves the previous snapshot
// or the new one; /v1/admin/snapshot writes the same bytes to a connection.
// Together with the dataset's own Save, a deployment cold-starts without
// the O(|D|) clique enumeration: figdata writes the file, figserver loads
// it or streams it from a peer. Segment integrity rides on the FSG1 section
// CRCs index.Load verifies; everything else is ReadSnapshot's job.
package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"figfusion/internal/atomicfile"
	"figfusion/internal/corr"
	"figfusion/internal/index"
	"figfusion/internal/media"
)

// manifestVersion guards the snapshot format; bump on incompatible change.
// Version 1 was a snapshot set: a manifest file naming one file per shard.
const manifestVersion = 2

// Manifest is a snapshot's first line. Objects, Generation and Inserts
// stamp the corpus state the snapshot was cut at; Features and Thresholds
// stamp what the index was built under — the dictionary's FID space and the
// trained FIG edge thresholds that decide which cliques exist. Loading
// refuses a model that differs in any of them, and a loaded snapshot's
// stored CorS weights are only served while the paired model still sits at
// the generation index.Load restamps them to.
type Manifest struct {
	Version    int             `json:"version"`
	Shards     int             `json:"shards"`
	Objects    int             `json:"objects"`
	Features   int             `json:"features"`
	Thresholds corr.Thresholds `json:"thresholds"`
	Generation uint64          `json:"generation"`
	Inserts    uint64          `json:"inserts"`
}

const (
	// maxManifestLine caps the manifest line, > 100× any real manifest.
	maxManifestLine = 64 << 10
	// maxShards and maxSegment cap what a manifest and a length prefix may
	// claim. Snapshots arrive over the network; a corrupted or adversarial
	// stream must not translate into an unbounded allocation.
	maxShards  = 1 << 16
	maxSegment = 16 << 30
)

// errRewrite ends every refusal of a pre-v2 artefact.
const errRewrite = "rewrite it with figdata -index"

// decodeManifest parses and validates a snapshot's manifest line.
func decodeManifest(line []byte) (*Manifest, error) {
	if bytes.Equal(bytes.TrimSpace(line), []byte("{")) {
		return nil, errors.New("shard: snapshot: this is a v1 snapshot-set manifest (*.manifest.json), not a snapshot — " + errRewrite)
	}
	var man Manifest
	if err := json.Unmarshal(line, &man); err != nil {
		return nil, fmt.Errorf("shard: snapshot: manifest line: %w", err)
	}
	switch {
	case man.Version != manifestVersion:
		return nil, fmt.Errorf("shard: snapshot: manifest version %d, want %d — %s", man.Version, manifestVersion, errRewrite)
	case man.Shards < 1 || man.Shards > maxShards:
		return nil, fmt.Errorf("shard: snapshot: manifest shard count %d outside [1, %d]", man.Shards, maxShards)
	case man.Objects < 0 || man.Features < 0:
		return nil, fmt.Errorf("shard: snapshot: manifest counts %d objects, %d features must be >= 0", man.Objects, man.Features)
	}
	return &man, nil
}

// ReadSnapshot walks a snapshot: begin sees the validated manifest, then
// segment sees shard s's FSG1 bytes for every shard in order. It is the
// only reader of the framing. A callback error stops the walk; a segment
// callback that reads less than its segment does not misalign the next one.
func ReadSnapshot(rd io.Reader, begin func(*Manifest) error, segment func(s int, seg io.Reader) error) error {
	br := bufio.NewReaderSize(rd, maxManifestLine)
	if magic, _ := br.Peek(4); string(magic) == "FSG1" {
		return errors.New("shard: snapshot: this is a bare FSG1 index segment, not a snapshot — " + errRewrite)
	}
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return fmt.Errorf("shard: snapshot: no manifest line within the first %d bytes — not a snapshot", maxManifestLine)
	}
	if err != nil {
		return fmt.Errorf("shard: snapshot: input ends %d bytes into the manifest line: %w", len(line), err)
	}
	man, err := decodeManifest(line)
	if err != nil {
		return err
	}
	if err := begin(man); err != nil {
		return err
	}
	var size [8]byte
	for s := 0; s < man.Shards; s++ {
		if _, err := io.ReadFull(br, size[:]); err != nil {
			return fmt.Errorf("shard: snapshot: shard %d length prefix: %w", s, err)
		}
		n := binary.LittleEndian.Uint64(size[:])
		if n > maxSegment {
			return fmt.Errorf("shard: snapshot: shard %d claims %d bytes — snapshot is corrupt", s, n)
		}
		seg := &io.LimitedReader{R: br, N: int64(n)}
		if err := segment(s, seg); err != nil {
			return fmt.Errorf("shard: snapshot: shard %d: %w", s, err)
		}
		if _, err := io.Copy(io.Discard, seg); err != nil {
			return fmt.Errorf("shard: snapshot: shard %d: %w", s, err)
		}
		if seg.N > 0 {
			return fmt.Errorf("shard: snapshot: shard %d: input ends %d bytes short of the segment", s, seg.N)
		}
	}
	return nil
}

// writeSnapshot writes the router's snapshot to w and returns its manifest.
// Routed inserts are held off for the duration (one corpus state must pair
// with every segment); searches proceed, pausing per shard only while that
// shard serializes.
func (r *Router) writeSnapshot(w io.Writer) (*Manifest, error) {
	r.insertMu.Lock()
	defer r.insertMu.Unlock()
	m := r.stamp()
	line, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	var size [8]byte
	for s, sh := range r.shards {
		buf.Reset()
		if err := sh.stream(&buf, m.Generation); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		binary.LittleEndian.PutUint64(size[:], uint64(buf.Len()))
		if _, err := w.Write(size[:]); err != nil {
			return nil, err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// stamp returns a manifest of the router's current state. The caller holds
// insertMu, so the stamp pairs with every shard serialized under that hold.
func (r *Router) stamp() *Manifest {
	r.statsMu.RLock()
	defer r.statsMu.RUnlock()
	corpus := r.model.Stats.Corpus()
	return &Manifest{
		Version:    manifestVersion,
		Shards:     len(r.shards),
		Objects:    corpus.Len(),
		Features:   corpus.Dict.Len(),
		Thresholds: r.model.Thresholds,
		Generation: r.model.Generation(),
		Inserts:    r.inserts.Load(),
	}
}

// stream serializes one shard's index into w under its read lock.
// Freshness is judged against the shared model's generation: a shard's own
// refresh generation lags the model whenever the last insert routed
// elsewhere, and rows refreshed at an intermediate generation must not load
// as authoritative (see index.SaveAt).
func (sh *shardState) stream(w io.Writer, gen uint64) error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.eng.Index.SaveAt(w, gen)
}

// StreamSnapshot writes the router's snapshot to w — the body of
// /v1/admin/snapshot, and byte for byte the file Save writes.
func (r *Router) StreamSnapshot(w io.Writer) error {
	_, err := r.writeSnapshot(w)
	return err
}

// Save writes the router's snapshot to path and returns its manifest. The
// file is replaced through atomicfile: a crash or error at any byte leaves
// the previous snapshot at path untouched, and no other file behind.
func (r *Router) Save(path string) (man *Manifest, err error) {
	err = atomicfile.Write(path, func(w io.Writer) (err error) {
		man, err = r.writeSnapshot(w)
		return err
	})
	return man, err
}

// corpusLen reads the corpus size under the statistics read lock.
func (r *Router) corpusLen() int {
	r.statsMu.RLock()
	defer r.statsMu.RUnlock()
	return r.model.Stats.Corpus().Len()
}

// Load rebuilds a router from the snapshot file at path (LoadSnapshotStream
// over its bytes).
func Load(m *corr.Model, cfg Config, path string) (*Router, *Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: snapshot: %w", err)
	}
	defer f.Close()
	return LoadSnapshotStream(m, cfg, f)
}

// LoadSnapshotStream rebuilds a router from a snapshot, over a model that
// must be the one the snapshot was cut from: same corpus (size and
// object-ID space), same dictionary, same trained thresholds — pair
// snapshots with their dataset file and -seed. cfg.Shards must be zero or
// match the manifest. As with index.Load, entries that were fresh at save
// time are restamped to generation 0 — authoritative for a freshly
// constructed model over the paired dataset — and stale entries keep a
// never-matching stamp, falling back to the scorer.
func LoadSnapshotStream(m *corr.Model, cfg Config, rd io.Reader) (*Router, *Manifest, error) {
	var (
		r      *Router
		man    *Manifest
		counts []int
	)
	err := ReadSnapshot(rd, func(mf *Manifest) (err error) {
		man = mf
		if err = mf.check(m, cfg); err != nil {
			return err
		}
		r, counts, err = newRouter(m, cfg, mf.Shards)
		return err
	}, func(s int, seg io.Reader) error {
		inv, err := index.Load(seg)
		if err != nil {
			return err
		}
		if err := r.checkRouting(inv, s); err != nil {
			return err
		}
		return r.attach(s, inv, cfg, counts[s])
	})
	if err != nil {
		return nil, nil, err
	}
	return r, man, nil
}

// check refuses a config or model the snapshot was not cut under, naming
// the manifest field that disagrees.
func (man *Manifest) check(m *corr.Model, cfg Config) error {
	const pair = "pair the snapshot with the dataset and -seed it was written from"
	corpus := m.Stats.Corpus()
	switch {
	case cfg.Shards != 0 && cfg.Shards != man.Shards:
		return fmt.Errorf("shard: snapshot: shards: configured %d shards but snapshot has %d", cfg.Shards, man.Shards)
	case corpus.Len() != man.Objects:
		return fmt.Errorf("shard: snapshot: objects: cut at %d objects but corpus has %d — %s", man.Objects, corpus.Len(), pair)
	case corpus.Dict.Len() != man.Features:
		return fmt.Errorf("shard: snapshot: features: built over %d dictionary features but the dataset has %d — %s", man.Features, corpus.Dict.Len(), pair)
	}
	for a := range man.Thresholds {
		for b, th := range man.Thresholds[a] {
			//figlint:allow floatcmp -- JSON round-trips float64 exactly, and an edge test Cor > threshold flips on the last bit
			if got := m.Thresholds[a][b]; got != th {
				return fmt.Errorf("shard: snapshot: thresholds[%s][%s]: built under %v but the model trained %v — %s",
					media.Kind(a), media.Kind(b), th, got, pair)
			}
		}
	}
	return nil
}

// checkRouting verifies every posting of a loaded segment routes to the
// shard it was loaded into and falls inside the router's ownership
// predicate — the cheap integrity check that catches a snapshot reassembled
// with the wrong shard count or segment order, or a partition snapshot
// loaded onto the wrong node.
func (r *Router) checkRouting(inv *index.Inverted, s int) error {
	shards := len(r.shards)
	for _, e := range inv.Entries() {
		for _, id := range e.Objects {
			if ShardOf(id, shards) != s {
				return fmt.Errorf("object %d routes to shard %d — segments do not match the manifest", id, ShardOf(id, shards))
			}
			if !r.ownsObject(id) {
				return fmt.Errorf("object %d falls outside this node's partition — snapshot belongs to a different node", id)
			}
		}
	}
	return nil
}
