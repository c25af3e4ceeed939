// Binary segment snapshot format ("FSG1"): the persisted form of the
// inverted index, designed so that loading is a handful of bulk decodes
// into the flat arenas of index.go rather than a row-at-a-time rebuild,
// and so the snapshot is postings-sized, not framing-sized.
//
// Layout (all fixed-width integers little-endian):
//
//	header   32 B   magic "FSG1" · version u32 · flags u32 ·
//	                sectionCount u32 · generation u64 · entryCount u64
//	dir      4×24 B per section: kind u32 · reserved u32 · offset u64 · length u64
//	tables          per-entry varint directory, in clique-key order:
//	                uvarint featCount · uvarint featBytes ·
//	                uvarint postCount · uvarint postBytes · uvarint blockCount
//	meta            CorS f64[n], then freshness bitmap ⌈n/8⌉ B
//	streams         per-entry feature streams concatenated (varint-delta:
//	                uvarint(first FID), then uvarint gaps), then per-entry
//	                posting streams concatenated (varint-delta, same shape)
//	blocks          block summaries stored columnar on disk (in memory they
//	                are one Block row each): maxSF f64[Σb] · maxSM f64[Σb] ·
//	                minSM f64[Σb]
//	trailer  20 B   CRC32-IEEE of each section payload (4×u32), then
//	                CRC32-IEEE of header+directory (u32)
//
// Everything derivable is derived instead of stored: clique keys are
// fig.KeyOf of the feature list, recomputed on load into the interned key
// table; block ID ranges (MinID/MaxID) are the first and last posting of
// each BlockLen run, reconstructed from the decoded postings — an entry's
// blockCount must be 0 or exactly ⌈postCount/BlockLen⌉, which the writer
// enforces by refusing to persist summaries that don't partition the
// posting list. Feature lists and posting lists are strictly increasing,
// so both delta-varint-code to ~1–2 bytes per element; the block maxima
// stay raw f64 because the pruned search paths must see bit-exact bounds.
//
// The load path is a cheap serial prefix scan of the tables section (five
// uvarints per entry, yielding every per-entry payload offset), then
// parallel decode: workers take disjoint entry ranges and write fixed,
// precomputed arena slots — the package determinism contract — so the
// loaded index is identical at any worker count.
//
// Every malformed input must fail with an "index: segment: ..." error —
// never a panic, never a silently partial index. The reader therefore
// validates the full structure (magic, version, directory contiguity,
// per-section CRCs, table consistency, cross-section totals) before and
// during decode, and bounds every read against the declared section.
package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"sync"

	"figfusion/internal/fig"
	"figfusion/internal/media"
	"figfusion/internal/par"
)

const (
	segMagic       = "FSG1"
	segVersion     = 1
	segHeaderLen   = 32
	segDirEntryLen = 24
	segNumSections = 4
	segTrailerLen  = 4*segNumSections + 4
	segDirStart    = segHeaderLen
	segPayloadOff  = segHeaderLen + segNumSections*segDirEntryLen
)

// Section indices, in file order.
const (
	segSecTables = iota
	segSecMeta
	segSecStreams
	segSecBlocks
)

var segSectionNames = [segNumSections]string{"tables", "meta", "streams", "blocks"}

func segErrf(format string, args ...any) error {
	return fmt.Errorf("index: segment: "+format, args...)
}

// uvarintLen returns the encoded size of x in bytes.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// deltaStreamLen returns the varint-delta-encoded size of one strictly
// increasing int32 list (postings or feature lists).
func deltaStreamLen[T ~int32](vals []T) int {
	if len(vals) == 0 {
		return 0
	}
	n := uvarintLen(uint64(uint32(vals[0])))
	for i := 1; i < len(vals); i++ {
		n += uvarintLen(uint64(uint32(vals[i]) - uint32(vals[i-1])))
	}
	return n
}

// persistableBlocks reports how many block summaries of e the format can
// carry: the full set when they partition the posting list into BlockLen
// runs (always true for computeBlocks output, and what lets the reader
// rebuild MinID/MaxID from the postings), zero otherwise — an entry
// without persisted summaries loads as unprunable, which the pruning
// layer already treats as "search this list unpruned".
func persistableBlocks(e *Entry) int {
	nb := len(e.blocks)
	if nb == 0 || nb != (len(e.Objects)+BlockLen-1)/BlockLen {
		return 0
	}
	for bi := 0; bi < nb; bi++ {
		lo := bi * BlockLen
		hi := min(lo+BlockLen, len(e.Objects))
		if e.blocks[bi].MinID != e.Objects[lo] || e.blocks[bi].MaxID != e.Objects[hi-1] {
			return 0
		}
	}
	return nb
}

// segWriter streams one section: bytes go to the buffered writer while a
// CRC32 accumulates, with sticky error handling.
type segWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
	buf [binary.MaxVarintLen64]byte
	err error
}

func (s *segWriter) bytes(p []byte) {
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(p); err != nil {
		s.err = err
		return
	}
	s.crc.Write(p)
}

func (s *segWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(s.buf[:4], v)
	s.bytes(s.buf[:4])
}

func (s *segWriter) f64(v float64) {
	binary.LittleEndian.PutUint64(s.buf[:8], math.Float64bits(v))
	s.bytes(s.buf[:8])
}

func (s *segWriter) uvarint(v uint64) {
	n := binary.PutUvarint(s.buf[:], v)
	s.bytes(s.buf[:n])
}

// deltaStream writes one strictly increasing int32 list in varint-delta
// form.
func (s *segWriter) deltaStream(vals []media.ObjectID) {
	for i, v := range vals {
		if i == 0 {
			s.uvarint(uint64(uint32(v)))
		} else {
			s.uvarint(uint64(uint32(v) - uint32(vals[i-1])))
		}
	}
}

// endSection returns the finished section's CRC and resets for the next.
func (s *segWriter) endSection() uint32 {
	c := s.crc.Sum32()
	s.crc.Reset()
	return c
}

// writeSegment writes the index in segment format. gen is the freshness
// authority, exactly as in SaveAt: an entry is persisted fresh iff its
// CorS/blocks were computed at that generation.
func (inv *Inverted) writeSegment(w io.Writer, gen uint64) error {
	keys := inv.sortedKeys()
	n := len(keys)
	ents := make([]*Entry, n)
	featBytes := make([]int, n)
	postBytes := make([]int, n)
	blkCount := make([]int, n)
	var tablesLen, streamsLen, totalBlocks int
	for i, k := range keys {
		e := inv.entries[k]
		if e == nil {
			return segErrf("write: no entry for key %q", k)
		}
		for j := 1; j < len(e.Feats); j++ {
			if e.Feats[j] <= e.Feats[j-1] {
				return segErrf("write: entry %q has an unsorted feature list", k)
			}
		}
		ents[i] = e
		featBytes[i] = deltaStreamLen(e.Feats)
		postBytes[i] = deltaStreamLen(e.Objects)
		blkCount[i] = persistableBlocks(e)
		totalBlocks += blkCount[i]
		streamsLen += featBytes[i] + postBytes[i]
		tablesLen += uvarintLen(uint64(len(e.Feats))) + uvarintLen(uint64(featBytes[i])) +
			uvarintLen(uint64(len(e.Objects))) + uvarintLen(uint64(postBytes[i])) +
			uvarintLen(uint64(blkCount[i]))
	}
	metaLen := 8*n + (n+7)/8
	blocksLen := 24 * totalBlocks

	// Header + directory, checksummed together into the trailer.
	hdr := make([]byte, segPayloadOff)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint32(hdr[4:], segVersion)
	binary.LittleEndian.PutUint32(hdr[8:], 0) // flags
	binary.LittleEndian.PutUint32(hdr[12:], segNumSections)
	binary.LittleEndian.PutUint64(hdr[16:], gen)
	binary.LittleEndian.PutUint64(hdr[24:], uint64(n))
	off := uint64(segPayloadOff)
	for i, ln := range []int{tablesLen, metaLen, streamsLen, blocksLen} {
		d := hdr[segDirStart+i*segDirEntryLen:]
		binary.LittleEndian.PutUint32(d, uint32(i+1)) // kind
		binary.LittleEndian.PutUint32(d[4:], 0)       // reserved
		binary.LittleEndian.PutUint64(d[8:], off)
		binary.LittleEndian.PutUint64(d[16:], uint64(ln))
		off += uint64(ln)
	}
	headerCRC := crc32.ChecksumIEEE(hdr)

	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(hdr); err != nil {
		return segErrf("write: %w", err)
	}
	s := &segWriter{w: bw, crc: crc32.NewIEEE()}
	var crcs [segNumSections]uint32

	// tables: the per-entry varint directory.
	for i, e := range ents {
		s.uvarint(uint64(len(e.Feats)))
		s.uvarint(uint64(featBytes[i]))
		s.uvarint(uint64(len(e.Objects)))
		s.uvarint(uint64(postBytes[i]))
		s.uvarint(uint64(blkCount[i]))
	}
	crcs[segSecTables] = s.endSection()

	// meta: CorS values, then the freshness bitmap.
	for _, e := range ents {
		s.f64(e.CorS)
	}
	var bit, acc byte
	for _, e := range ents {
		if e.corsGen == gen {
			acc |= 1 << bit
		}
		if bit++; bit == 8 {
			s.bytes([]byte{acc})
			bit, acc = 0, 0
		}
	}
	if bit != 0 {
		s.bytes([]byte{acc})
	}
	crcs[segSecMeta] = s.endSection()

	// streams: feature streams, then posting streams.
	for _, e := range ents {
		for j, fid := range e.Feats {
			if j == 0 {
				s.uvarint(uint64(uint32(fid)))
			} else {
				s.uvarint(uint64(uint32(fid) - uint32(e.Feats[j-1])))
			}
		}
	}
	for _, e := range ents {
		s.deltaStream(e.Objects)
	}
	crcs[segSecStreams] = s.endSection()

	// blocks: the three float arrays, each one field of every Block.
	for _, field := range [3]func(Block) float64{
		func(b Block) float64 { return b.MaxSF },
		func(b Block) float64 { return b.MaxSM },
		func(b Block) float64 { return b.MinSM },
	} {
		for i, e := range ents {
			for _, b := range e.blocks[:blkCount[i]] {
				s.f64(field(b))
			}
		}
	}
	crcs[segSecBlocks] = s.endSection()

	for _, c := range crcs {
		s.u32(c)
	}
	s.u32(headerCRC)
	if s.err != nil {
		return segErrf("write: %w", s.err)
	}
	if err := bw.Flush(); err != nil {
		return segErrf("write: %w", err)
	}
	return nil
}

// segLayout is the validated frame of a segment file: header fields,
// section byte ranges (contiguous by construction) and the trailer CRCs.
type segLayout struct {
	version   uint32
	gen       uint64
	n         int
	secOff    [segNumSections]int
	secLen    [segNumSections]int
	crcs      [segNumSections]uint32
	headerCRC uint32
}

func (l *segLayout) section(data []byte, i int) []byte {
	return data[l.secOff[i] : l.secOff[i]+l.secLen[i]]
}

// parseSegLayout validates everything outside the section payloads: magic,
// version, directory shape and contiguity, and the header checksum.
func parseSegLayout(data []byte) (*segLayout, error) {
	// Magic first: bytes this loader does not own are refused by name
	// before any length or field of theirs is interpreted.
	if head := data[:min(len(data), len(segMagic))]; string(head) != segMagic {
		return nil, segErrf("not an %s segment: starts %q", segMagic, head)
	}
	if len(data) < segPayloadOff+segTrailerLen {
		return nil, segErrf("truncated: %d bytes, need at least %d for header+trailer", len(data), segPayloadOff+segTrailerLen)
	}
	l := &segLayout{version: binary.LittleEndian.Uint32(data[4:])}
	if l.version != segVersion {
		return nil, segErrf("unsupported format version %d (want %d)", l.version, segVersion)
	}
	if sc := binary.LittleEndian.Uint32(data[12:]); sc != segNumSections {
		return nil, segErrf("unexpected section count %d (want %d)", sc, segNumSections)
	}
	l.gen = binary.LittleEndian.Uint64(data[16:])
	nEnt := binary.LittleEndian.Uint64(data[24:])
	if nEnt > math.MaxInt32 {
		return nil, segErrf("implausible entry count %d", nEnt)
	}
	l.n = int(nEnt)
	trailer := data[len(data)-segTrailerLen:]
	for i := range l.crcs {
		l.crcs[i] = binary.LittleEndian.Uint32(trailer[4*i:])
	}
	l.headerCRC = binary.LittleEndian.Uint32(trailer[4*segNumSections:])
	if got := crc32.ChecksumIEEE(data[:segPayloadOff]); got != l.headerCRC {
		return nil, segErrf("header checksum mismatch: file says %08x, computed %08x", l.headerCRC, got)
	}
	payloadEnd := uint64(len(data) - segTrailerLen)
	want := uint64(segPayloadOff)
	for i := 0; i < segNumSections; i++ {
		d := data[segDirStart+i*segDirEntryLen:]
		if kind := binary.LittleEndian.Uint32(d); kind != uint32(i+1) {
			return nil, segErrf("directory entry %d has kind %d (want %d)", i, kind, i+1)
		}
		off := binary.LittleEndian.Uint64(d[8:])
		ln := binary.LittleEndian.Uint64(d[16:])
		if off != want {
			return nil, segErrf("%s section at offset %d, want %d (sections must be contiguous)", segSectionNames[i], off, want)
		}
		if ln > payloadEnd-off {
			return nil, segErrf("%s section of %d bytes overruns the file", segSectionNames[i], ln)
		}
		l.secOff[i], l.secLen[i] = int(off), int(ln)
		want = off + ln
	}
	if want != payloadEnd {
		return nil, segErrf("%d bytes of trailing garbage between sections and trailer", payloadEnd-want)
	}
	return l, nil
}

// segTables is the prefix-scanned per-entry directory: cumulative counts
// and byte offsets for every payload, plus the totals they imply. All
// cross-section consistency is validated here, so the parallel decode can
// slice blindly.
type segTables struct {
	featCnt []int // n+1, cumulative feature counts
	featOff []int // n+1, cumulative feature-stream byte offsets
	postCnt []int // n+1, cumulative posting counts
	postOff []int // n+1, cumulative posting-stream byte offsets (within the postings region)
	blkCnt  []int // n+1, cumulative block counts

	totalFeats  int
	totalPosts  int
	totalBlocks int
	featRegion  int // bytes of the streams section holding feature streams
}

// parseSegTables runs the serial prefix scan of the tables section,
// validating each record and the cross-section totals.
func parseSegTables(data []byte, l *segLayout) (*segTables, error) {
	n := l.n
	if wantMeta := 8*n + (n+7)/8; l.secLen[segSecMeta] != wantMeta {
		return nil, segErrf("meta section is %d bytes, want %d for %d entries", l.secLen[segSecMeta], wantMeta, n)
	}
	streamsLen := l.secLen[segSecStreams]
	t := &segTables{
		featCnt: make([]int, n+1),
		featOff: make([]int, n+1),
		postCnt: make([]int, n+1),
		postOff: make([]int, n+1),
		blkCnt:  make([]int, n+1),
	}
	raw := l.section(data, segSecTables)
	pos := 0
	next := func(what string, i int, bound int) (int, error) {
		v, sz := binary.Uvarint(raw[pos:])
		if sz <= 0 {
			return 0, segErrf("entry %d: tables section ends mid-%s", i, what)
		}
		pos += sz
		if v > uint64(bound) {
			return 0, segErrf("entry %d: %s %d exceeds bound %d", i, what, v, bound)
		}
		return int(v), nil
	}
	for i := 0; i < n; i++ {
		fc, err := next("feature count", i, streamsLen)
		if err != nil {
			return nil, err
		}
		fb, err := next("feature bytes", i, streamsLen)
		if err != nil {
			return nil, err
		}
		pc, err := next("posting count", i, streamsLen)
		if err != nil {
			return nil, err
		}
		pb, err := next("posting bytes", i, streamsLen)
		if err != nil {
			return nil, err
		}
		// A varint element takes at least one byte.
		if fc > fb || pc > pb {
			return nil, segErrf("entry %d: %d+%d elements cannot fit in %d+%d stream bytes", i, fc, pc, fb, pb)
		}
		wantBlocks := (pc + BlockLen - 1) / BlockLen
		bc, err := next("block count", i, wantBlocks)
		if err != nil {
			return nil, err
		}
		if bc != 0 && bc != wantBlocks {
			return nil, segErrf("entry %d: %d blocks cannot partition %d postings (want 0 or %d)", i, bc, pc, wantBlocks)
		}
		t.featCnt[i+1] = t.featCnt[i] + fc
		t.featOff[i+1] = t.featOff[i] + fb
		t.postCnt[i+1] = t.postCnt[i] + pc
		t.postOff[i+1] = t.postOff[i] + pb
		t.blkCnt[i+1] = t.blkCnt[i] + bc
		if t.featOff[i+1]+t.postOff[i+1] > streamsLen {
			return nil, segErrf("entry %d: streams overrun the section (%d+%d of %d bytes)", i, t.featOff[i+1], t.postOff[i+1], streamsLen)
		}
	}
	if pos != len(raw) {
		return nil, segErrf("%d bytes of trailing garbage in the tables section", len(raw)-pos)
	}
	t.totalFeats = t.featCnt[n]
	t.totalPosts = t.postCnt[n]
	t.totalBlocks = t.blkCnt[n]
	t.featRegion = t.featOff[n]
	if t.featRegion+t.postOff[n] != streamsLen {
		return nil, segErrf("streams section holds %d bytes, tables account for %d", streamsLen, t.featRegion+t.postOff[n])
	}
	if want := 24 * t.totalBlocks; l.secLen[segSecBlocks] != want {
		return nil, segErrf("blocks section is %d bytes, want %d for %d blocks", l.secLen[segSecBlocks], want, t.totalBlocks)
	}
	return t, nil
}

// decodeDelta decodes one varint-delta stream of want strictly increasing
// int32 values into dst (len(dst) == want), returning a descriptive error
// on any malformation.
func decodeDelta[T ~int32](seg []byte, dst []T, i int, what string) error {
	pos, prev := 0, uint64(0)
	for j := range dst {
		v, sz := binary.Uvarint(seg[pos:])
		if sz <= 0 {
			return segErrf("entry %d: %s stream ends mid-varint", i, what)
		}
		pos += sz
		if v > math.MaxUint32 {
			// Also rules out uint64 wraparound in the delta sum below
			// sneaking past the int32 range check.
			return segErrf("entry %d: %s varint %d out of range", i, what, v)
		}
		if j > 0 {
			if v == 0 {
				return segErrf("entry %d: zero %s delta (duplicate value)", i, what)
			}
			v += prev
		}
		if v > math.MaxInt32 {
			return segErrf("entry %d: %s value %d overflows int32", i, what, v)
		}
		dst[j] = T(v)
		prev = v
	}
	if pos != len(seg) {
		return segErrf("entry %d: %d unconsumed bytes in %s range", i, len(seg)-pos, what)
	}
	return nil
}

// readSegment decodes a segment snapshot into a sealed index, fanning the
// per-section CRC verification and the per-entry payload decodes out over
// workers (0 = NumCPU). Decode targets are fixed, disjoint arena slots, so
// the result is identical at any worker count.
func readSegment(data []byte, workers int) (*Inverted, error) {
	l, err := parseSegLayout(data)
	if err != nil {
		return nil, err
	}

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}

	// Verify payload integrity before trusting any of it. CRC32 cannot be
	// split mid-section without a combine step, so parallelism is across
	// the four sections.
	par.Range(segNumSections, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if got := crc32.ChecksumIEEE(l.section(data, i)); got != l.crcs[i] {
				fail(segErrf("%s section checksum mismatch: file says %08x, computed %08x", segSectionNames[i], l.crcs[i], got))
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}

	t, err := parseSegTables(data, l)
	if err != nil {
		return nil, err
	}
	n := l.n

	a := &arena{
		keys:   make([]string, n),
		ents:   make([]Entry, n),
		feats:  make([]media.FID, t.totalFeats),
		posts:  make([]media.ObjectID, t.totalPosts),
		blocks: make([]Block, t.totalBlocks),
	}

	meta := l.section(data, segSecMeta)
	corsData, freshBits := meta[:8*n], meta[8*n:]
	streams := l.section(data, segSecStreams)
	featRegion, postRegion := streams[:t.featRegion], streams[t.featRegion:]

	par.Range(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fo, f1 := t.featCnt[i], t.featCnt[i+1]
			fv := a.feats[fo:f1:f1]
			if err := decodeDelta(featRegion[t.featOff[i]:t.featOff[i+1]], fv, i, "feature"); err != nil {
				fail(err)
				return
			}
			a.keys[i] = fig.KeyOf(fv)

			po, p1 := t.postCnt[i], t.postCnt[i+1]
			pv := a.posts[po:p1:p1]
			if err := decodeDelta(postRegion[t.postOff[i]:t.postOff[i+1]], pv, i, "posting"); err != nil {
				fail(err)
				return
			}

			// Rebuild the block ID ranges from the postings they summarize.
			bo, b1 := t.blkCnt[i], t.blkCnt[i+1]
			for bi := 0; bi < b1-bo; bi++ {
				plo := bi * BlockLen
				phi := min(plo+BlockLen, len(pv))
				a.blocks[bo+bi].MinID = pv[plo]
				a.blocks[bo+bi].MaxID = pv[phi-1]
			}

			gen := uint64(staleGen)
			if freshBits[i/8]&(1<<(i%8)) != 0 {
				gen = 0
			}
			a.ents[i] = Entry{
				Feats:   fv,
				CorS:    math.Float64frombits(binary.LittleEndian.Uint64(corsData[8*i:])),
				Objects: pv,
				blocks:  a.blocks[bo:b1:b1],
				corsGen: gen,
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}

	// The three on-disk float arrays decode independently of the entry loop.
	tb := t.totalBlocks
	blk := l.section(data, segSecBlocks)
	maxSF, maxSM, minSM := blk, blk[8*tb:], blk[16*tb:]
	par.Range(tb, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b := &a.blocks[i]
			b.MaxSF = math.Float64frombits(binary.LittleEndian.Uint64(maxSF[8*i:]))
			b.MaxSM = math.Float64frombits(binary.LittleEndian.Uint64(maxSM[8*i:]))
			b.MinSM = math.Float64frombits(binary.LittleEndian.Uint64(minSM[8*i:]))
		}
	})

	// Serial assembly: the lookup map interns the same key instances as
	// the arena table. Entries loaded fresh are stamped generation 0, the
	// stamp of a freshly constructed model over the paired dataset.
	inv := &Inverted{entries: make(map[string]*Entry, n), arena: a}
	for i := range a.keys {
		if i > 0 && a.keys[i] <= a.keys[i-1] {
			return nil, segErrf("entries out of clique-key order at %d", i)
		}
		inv.entries[a.keys[i]] = &a.ents[i]
	}
	return inv, nil
}

// SectionInfo describes one segment section for inspection tooling.
type SectionInfo struct {
	Name  string
	Bytes int64
	CRC   uint32
	OK    bool // stored CRC matches the payload
}

// SnapshotInfo is what figdata -inspect prints: the segment header plus
// cheaply derivable totals.
type SnapshotInfo struct {
	Version    uint32
	Generation uint64 // save-time freshness authority
	Bytes      int64
	Entries    int
	Feats      int64
	Postings   int64
	Blocks     int64
	Fresh      int // entries persisted as fresh
	Sections   []SectionInfo
	HeaderCRC  uint32
}

// inspectSegment summarises a segment file without building the index:
// layout, the tables prefix scan and checksums only — the streams
// themselves are read just by the CRC pass.
func inspectSegment(data []byte) (*SnapshotInfo, error) {
	l, err := parseSegLayout(data)
	if err != nil {
		return nil, err
	}
	t, err := parseSegTables(data, l)
	if err != nil {
		return nil, err
	}
	info := &SnapshotInfo{
		Version:    l.version,
		Generation: l.gen,
		Bytes:      int64(len(data)),
		Entries:    l.n,
		Feats:      int64(t.totalFeats),
		Postings:   int64(t.totalPosts),
		Blocks:     int64(t.totalBlocks),
		HeaderCRC:  l.headerCRC,
	}
	for i := 0; i < segNumSections; i++ {
		info.Sections = append(info.Sections, SectionInfo{
			Name:  segSectionNames[i],
			Bytes: int64(l.secLen[i]),
			CRC:   l.crcs[i],
			OK:    crc32.ChecksumIEEE(l.section(data, i)) == l.crcs[i],
		})
	}
	meta := l.section(data, segSecMeta)[8*l.n:]
	for i := 0; i < l.n; i++ {
		if meta[i/8]&(1<<(i%8)) != 0 {
			info.Fresh++
		}
	}
	return info, nil
}
