// Sharded snapshot persistence: one JSON manifest describing the shard
// layout plus one FSG1 segment per shard (written by index.SaveAt).
// Together with the dataset's own Save, a sharded deployment can cold-start
// without the O(|D|) clique enumeration: figdata writes the snapshot set,
// figserver loads it.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"figfusion/internal/atomicfile"
	"figfusion/internal/corr"
	"figfusion/internal/index"
)

// manifestVersion guards the manifest schema; bump on incompatible change.
const manifestVersion = 1

// Manifest describes one sharded snapshot set. Files are relative to the
// manifest's own directory, in shard order, so the set can be moved as a
// unit. Objects, Generation and Inserts stamp the corpus state the
// snapshot was cut at: Load refuses a corpus of a different size, and a
// loaded snapshot's stored CorS weights are only served while the paired
// model still sits at the generation index.Load restamps them to.
type Manifest struct {
	Version    int      `json:"version"`
	Shards     int      `json:"shards"`
	Objects    int      `json:"objects"`
	Generation uint64   `json:"generation"`
	Inserts    uint64   `json:"inserts"`
	Files      []string `json:"files"`
}

// ManifestPath returns the manifest filename for a snapshot base path.
func ManifestPath(base string) string { return base + ".manifest.json" }

// ManifestSuffix is the filename suffix every manifest carries; tools
// (figdata -inspect) recognise snapshot sets by it.
const ManifestSuffix = ".manifest.json"

// ReadManifest reads and validates a snapshot-set manifest. Every failure
// — unreadable file, truncated or hand-edited JSON, out-of-range fields —
// comes back as a descriptive "shard: manifest" error naming the file and
// the defect, in the style of the index package's segment-corruption
// errors, so a mangled snapshot set diagnoses itself instead of surfacing
// a raw decode error.
func ReadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	return DecodeManifest(raw, path)
}

// DecodeManifest parses and validates manifest bytes; name labels errors.
func DecodeManifest(raw []byte, name string) (*Manifest, error) {
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("shard: manifest %s: %s", name, describeJSONError(raw, err))
	}
	if err := man.validate(); err != nil {
		return nil, fmt.Errorf("shard: manifest %s: %w", name, err)
	}
	return &man, nil
}

// describeJSONError turns encoding/json's terse decode errors into
// diagnoses: truncation, syntax damage and type mismatches each name the
// byte offset or field so a hand-edited manifest points at its own defect.
func describeJSONError(raw []byte, err error) string {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return fmt.Sprintf("invalid JSON at byte %d of %d: %v (truncated or hand-edited?)", syn.Offset, len(raw), syn)
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		return fmt.Sprintf("field %q holds JSON %s, want %s", typ.Field, typ.Value, typ.Type)
	}
	if len(raw) == 0 {
		return "file is empty"
	}
	return err.Error()
}

// validate checks the decoded fields' internal consistency.
func (m *Manifest) validate() error {
	if m.Version != manifestVersion {
		return fmt.Errorf("version %d, want %d", m.Version, manifestVersion)
	}
	if m.Shards < 1 {
		return fmt.Errorf("shard count %d must be >= 1", m.Shards)
	}
	if m.Objects < 0 {
		return fmt.Errorf("object count %d must be >= 0", m.Objects)
	}
	if len(m.Files) != m.Shards {
		return fmt.Errorf("lists %d files for %d shards", len(m.Files), m.Shards)
	}
	seen := make(map[string]int, len(m.Files))
	for i, name := range m.Files {
		if name == "" {
			return fmt.Errorf("file %d has an empty name", i)
		}
		if filepath.Base(name) != name {
			return fmt.Errorf("file %d name %q must be a bare filename relative to the manifest", i, name)
		}
		if prev, dup := seen[name]; dup {
			return fmt.Errorf("file %q listed for both shard %d and shard %d", name, prev, i)
		}
		seen[name] = i
	}
	return nil
}

// shardName returns shard s's snapshot filename, relative to the manifest,
// for a base path. A set has two names per shard and Save alternates
// between them, so writing a new set never touches a file the manifest on
// disk still names.
func shardName(base string, s int, alt bool) string {
	if alt {
		return fmt.Sprintf("%s.shard%03d.alt.idx", filepath.Base(base), s)
	}
	return fmt.Sprintf("%s.shard%03d.idx", filepath.Base(base), s)
}

// stamp returns a manifest of the router's current corpus state with no
// files listed yet. The caller holds insertMu, so the stamp pairs with
// every shard serialized under the same hold.
func (r *Router) stamp() *Manifest {
	return &Manifest{
		Version:    manifestVersion,
		Shards:     len(r.shards),
		Objects:    r.corpusLen(),
		Generation: r.model.Generation(),
		Inserts:    r.inserts.Load(),
	}
}

// Save writes the router's shards to <base>.shard000.idx … and the
// manifest to <base>.manifest.json, returning the manifest. Routed inserts
// are held off for the duration (the snapshot must pair one corpus state
// with every shard file); searches proceed, pausing per shard only while
// that shard serializes.
//
// A crash or error at any point leaves the previous complete set or the
// new one, never a mix: every file is written through atomicfile, each
// shard goes to whichever of its two names the manifest on disk does not
// list, and the manifest — renamed into place last — is the commit point.
// Only then are the previous set's shard files removed. A failed Save
// leaves at most one unnamed file per shard, which the next Save overwrites.
func (r *Router) Save(base string) (*Manifest, error) {
	r.insertMu.Lock()
	defer r.insertMu.Unlock()
	dir := filepath.Dir(ManifestPath(base))
	live := make(map[string]bool) // shard files of the set on disk, if a loadable one is there
	if prev, err := ReadManifest(ManifestPath(base)); err == nil {
		for _, name := range prev.Files {
			live[name] = true
		}
	}
	m := r.stamp()
	for s, sh := range r.shards {
		name := shardName(base, s, live[shardName(base, s, false)])
		err := atomicfile.Write(filepath.Join(dir, name), func(w io.Writer) error { return sh.stream(w, m.Generation) })
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		m.Files = append(m.Files, name)
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	err = atomicfile.Write(ManifestPath(base), func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	})
	if err != nil {
		return nil, err
	}
	for name := range live {
		os.Remove(filepath.Join(dir, name)) // best effort: no manifest names it any more
	}
	return m, nil
}

// corpusLen reads the corpus size under the statistics read lock.
func (r *Router) corpusLen() int {
	r.statsMu.RLock()
	defer r.statsMu.RUnlock()
	return r.model.Stats.Corpus().Len()
}

// Load rebuilds a router from a snapshot set written by Save, over a model
// whose corpus must be the one the snapshot was cut from (same size and
// object-ID space; pair snapshot sets with their dataset files). cfg.Shards
// must be zero or match the manifest. As with index.Load, entries that were
// fresh at save time are restamped to generation 0 — authoritative for a
// freshly constructed model over the paired dataset — and stale entries
// keep a never-matching stamp, falling back to the scorer.
func Load(m *corr.Model, cfg Config, base string) (*Router, *Manifest, error) {
	man, err := ReadManifest(ManifestPath(base))
	if err != nil {
		return nil, nil, err
	}
	r, counts, err := fromManifest(m, cfg, man)
	if err != nil {
		return nil, nil, err
	}
	dir := filepath.Dir(ManifestPath(base))
	for s, name := range man.Files {
		inv, err := loadShardIndex(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if err := r.attachLoaded(s, inv, cfg, counts[s]); err != nil {
			return nil, nil, err
		}
	}
	return r, man, nil
}

// fromManifest is newRouter for a snapshot set: it also refuses a shard
// count or corpus the set was not cut from.
func fromManifest(m *corr.Model, cfg Config, man *Manifest) (*Router, []int, error) {
	if cfg.Shards != 0 && cfg.Shards != man.Shards {
		return nil, nil, fmt.Errorf("shard: configured %d shards but snapshot has %d", cfg.Shards, man.Shards)
	}
	if got := m.Stats.Corpus().Len(); got != man.Objects {
		return nil, nil, fmt.Errorf("shard: snapshot cut at %d objects but corpus has %d — pair snapshots with their dataset", man.Objects, got)
	}
	return newRouter(m, cfg, man.Shards)
}

// attachLoaded wires shard s around an index read from a snapshot, after
// checking the snapshot belongs there.
func (r *Router) attachLoaded(s int, inv *index.Inverted, cfg Config, objects int) error {
	if err := r.checkRouting(inv, s); err != nil {
		return err
	}
	return r.attach(s, inv, cfg, objects)
}

func loadShardIndex(path string) (*index.Inverted, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return index.Load(f)
}

// checkRouting verifies every posting of a loaded shard file routes to the
// shard it was loaded into and falls inside the router's ownership
// predicate — the cheap integrity check that catches a snapshot set
// reassembled with the wrong shard count, renamed files, or a partition
// snapshot loaded onto the wrong node.
func (r *Router) checkRouting(inv *index.Inverted, s int) error {
	shards := len(r.shards)
	for _, e := range inv.Entries() {
		for _, id := range e.Objects {
			if ShardOf(id, shards) != s {
				return fmt.Errorf("shard: object %d found in shard %d's snapshot but routes to shard %d — snapshot set does not match its manifest", id, s, ShardOf(id, shards))
			}
			if !r.ownsObject(id) {
				return fmt.Errorf("shard: object %d found in shard %d's snapshot but falls outside this node's partition — snapshot belongs to a different node", id, s)
			}
		}
	}
	return nil
}
