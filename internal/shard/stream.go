// Snapshot streaming: the single-connection form of the Save/Load snapshot
// set, used to bootstrap cluster nodes over /v1/admin/snapshot without a
// shared filesystem. The stream is one JSON manifest line followed by each
// shard's FSG1 segment, length-prefixed; integrity rides on the segment
// format's own CRC section trailers, verified by index.Load on the way in.
package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"figfusion/internal/corr"
	"figfusion/internal/index"
)

// streamShardName names shard s inside a streamed manifest. The names never
// touch a filesystem; they exist so a streamed manifest passes the same
// validation as an on-disk one.
func streamShardName(s int) string { return fmt.Sprintf("stream.shard%03d.idx", s) }

// StreamSnapshot writes the router's full snapshot set to w: the manifest
// as a single JSON line, then each shard's segment bytes preceded by a
// little-endian uint64 length. Like Save it holds off routed inserts for
// the duration so one corpus state pairs with every shard segment.
func (r *Router) StreamSnapshot(w io.Writer) error {
	r.insertMu.Lock()
	defer r.insertMu.Unlock()
	m := r.stamp()
	for s := range r.shards {
		m.Files = append(m.Files, streamShardName(s))
	}
	raw, err := encodeManifestLine(m)
	if err != nil {
		return err
	}
	if _, err := w.Write(raw); err != nil {
		return err
	}
	var buf bytes.Buffer
	var size [8]byte
	for s, sh := range r.shards {
		buf.Reset()
		if err := sh.stream(&buf, m.Generation); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		binary.LittleEndian.PutUint64(size[:], uint64(buf.Len()))
		if _, err := w.Write(size[:]); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// encodeManifestLine renders a manifest as one newline-terminated JSON line.
func encodeManifestLine(m *Manifest) ([]byte, error) {
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
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

// maxStreamSegment caps a single streamed shard segment. Snapshot streams
// arrive over the network; a corrupted or adversarial length prefix must
// not translate into an unbounded allocation.
const maxStreamSegment = 16 << 30

// LoadSnapshotStream rebuilds a router from a stream written by
// StreamSnapshot, with the same model/config contract as Load. Segment
// corruption is caught by the FSG1 section CRCs inside index.Load;
// manifest damage by DecodeManifest.
func LoadSnapshotStream(m *corr.Model, cfg Config, rd io.Reader) (*Router, *Manifest, error) {
	br := bufio.NewReader(rd)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, nil, fmt.Errorf("shard: snapshot stream: reading manifest line: %w", err)
	}
	man, err := DecodeManifest(line, "(snapshot stream)")
	if err != nil {
		return nil, nil, err
	}
	r, counts, err := fromManifest(m, cfg, man)
	if err != nil {
		return nil, nil, err
	}
	var size [8]byte
	for s := 0; s < man.Shards; s++ {
		if _, err := io.ReadFull(br, size[:]); err != nil {
			return nil, nil, fmt.Errorf("shard: snapshot stream: shard %d length prefix: %w", s, err)
		}
		n := binary.LittleEndian.Uint64(size[:])
		if n > maxStreamSegment {
			return nil, nil, fmt.Errorf("shard: snapshot stream: shard %d claims %d bytes — stream is corrupt", s, n)
		}
		inv, err := index.Load(io.LimitReader(br, int64(n)))
		if err != nil {
			return nil, nil, fmt.Errorf("shard: snapshot stream: shard %d: %w", s, err)
		}
		if err := r.attachLoaded(s, inv, cfg, counts[s]); err != nil {
			return nil, nil, err
		}
	}
	return r, man, nil
}
