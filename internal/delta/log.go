package delta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"gtpq/internal/atomicfile"
	"gtpq/internal/graph"
)

// The delta log is the durability half of live updates: every applied
// batch is appended as one CRC-framed record, fsynced, and replayed on
// the next load of the dataset. The format is crash-consistent under
// append-only writes:
//
//	header  magic "GTPQDLT1" (8 bytes)
//	        baseNodes, baseEdges, baseHash (uint64 little endian)
//	        crc32 (IEEE) of the 32 bytes above
//	record  len     uint32 LE — payload byte count
//	        lenCRC  uint32 LE — crc32 of the 4 len bytes
//	        payload (batch encoding below)
//	        payCRC  uint32 LE — crc32 of the payload
//
// Replay distinguishes the two failure modes the tests pin down:
//
//   - a torn tail — clean EOF inside the final record's frame — is the
//     signature of a crashed append and is tolerated: the complete
//     prefix is kept and Open truncates the torn bytes before the next
//     append;
//   - any CRC mismatch (a flipped byte in a length, payload, or the
//     header) is corruption and fails loudly. The length field has its
//     own CRC precisely so a flipped length bit cannot masquerade as a
//     torn tail by pushing the payload read past EOF.
//
// The header's base fingerprint (node/edge counts plus the structural
// Hash) refuses replay onto the wrong base: a dataset whose source
// graph was replaced must not silently absorb another graph's deltas.
//
// Batch payload encoding (uvarint = binary.AppendUvarint):
//
//	uvarint nodeCount
//	per node: label string, uvarint attrCount,
//	          per attr (sorted by key): key string, tag byte
//	          (0 string / 1 number), value
//	uvarint edgeCount
//	per edge: uvarint from, uvarint to, kind byte (0 tree / 1 cross)
//
// Strings are uvarint length + raw bytes, as in internal/snapshot.

// LogMagic identifies delta log files.
const LogMagic = "GTPQDLT1"

// LogSuffix is the sidecar suffix the catalog uses: dataset <name>'s
// log lives at <name>+LogSuffix next to <name>.snap (or the sharded
// directory <name>/).
const LogSuffix = ".deltas.log"

const headerLen = len(LogMagic) + 3*8 + 4

// HeaderLen is the byte length of a delta log header — the offset of
// the first record frame. Replication tailers use it to know where
// frame parsing starts when a chunk begins at offset zero.
const HeaderLen = headerLen

// maxRecordBytes bounds one record's payload; larger lengths are
// corruption by definition (an /update body is capped far below this).
const maxRecordBytes = 64 << 20

// BaseID identifies the base graph a log belongs to.
type BaseID struct {
	Nodes, Edges int
	Hash         uint64
}

// BaseOf fingerprints g for log verification.
func BaseOf(g *graph.Graph) BaseID {
	return BaseID{Nodes: g.N(), Edges: g.M(), Hash: Hash(g)}
}

func (b BaseID) String() string {
	return fmt.Sprintf("%d nodes / %d edges / %016x", b.Nodes, b.Edges, b.Hash)
}

// encodeBatch renders one batch payload.
func encodeBatch(b *Batch) []byte {
	var buf bytes.Buffer
	var scratch []byte
	putUvarint := func(v uint64) {
		scratch = binary.AppendUvarint(scratch[:0], v)
		buf.Write(scratch)
	}
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		buf.WriteString(s)
	}
	putUvarint(uint64(len(b.Nodes)))
	for _, na := range b.Nodes {
		putString(na.Label)
		keys := sortedAttrKeys(na.Attrs)
		putUvarint(uint64(len(keys)))
		for _, k := range keys {
			putString(k)
			val := na.Attrs[k]
			if val.IsNum {
				buf.WriteByte(1)
				scratch = binary.LittleEndian.AppendUint64(scratch[:0], math.Float64bits(val.Num))
				buf.Write(scratch)
			} else {
				buf.WriteByte(0)
				putString(val.Str)
			}
		}
	}
	putUvarint(uint64(len(b.Edges)))
	for _, e := range b.Edges {
		putUvarint(uint64(e.From))
		putUvarint(uint64(e.To))
		if e.Cross {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	return buf.Bytes()
}

// decodeBatch parses one record payload.
func decodeBatch(payload []byte) (Batch, error) {
	var b Batch
	r := bytes.NewReader(payload)
	readString := func() (string, error) {
		ln, err := binary.ReadUvarint(r)
		if err != nil {
			return "", err
		}
		if ln > uint64(r.Len()) {
			return "", fmt.Errorf("string length %d exceeds remaining %d bytes", ln, r.Len())
		}
		s := make([]byte, ln)
		if _, err := io.ReadFull(r, s); err != nil {
			return "", err
		}
		return string(s), nil
	}
	nNodes, err := binary.ReadUvarint(r)
	if err != nil {
		return b, fmt.Errorf("delta: record node count: %v", err)
	}
	if nNodes > uint64(len(payload)) {
		return b, fmt.Errorf("delta: implausible node count %d", nNodes)
	}
	for i := uint64(0); i < nNodes; i++ {
		var na NodeAdd
		if na.Label, err = readString(); err != nil {
			return b, fmt.Errorf("delta: record node %d: %v", i, err)
		}
		nAttrs, err := binary.ReadUvarint(r)
		if err != nil {
			return b, fmt.Errorf("delta: record node %d: %v", i, err)
		}
		if nAttrs > uint64(r.Len()) {
			return b, fmt.Errorf("delta: record node %d declares %d attributes", i, nAttrs)
		}
		if nAttrs > 0 {
			na.Attrs = make(graph.Attrs, nAttrs)
		}
		for a := uint64(0); a < nAttrs; a++ {
			key, err := readString()
			if err != nil {
				return b, fmt.Errorf("delta: record node %d attr: %v", i, err)
			}
			tag, err := r.ReadByte()
			if err != nil {
				return b, fmt.Errorf("delta: record node %d attr %q: %v", i, key, err)
			}
			switch tag {
			case 0:
				s, err := readString()
				if err != nil {
					return b, fmt.Errorf("delta: record node %d attr %q: %v", i, key, err)
				}
				na.Attrs[key] = graph.StrV(s)
			case 1:
				var raw [8]byte
				if _, err := io.ReadFull(r, raw[:]); err != nil {
					return b, fmt.Errorf("delta: record node %d attr %q: %v", i, key, err)
				}
				na.Attrs[key] = graph.NumV(math.Float64frombits(binary.LittleEndian.Uint64(raw[:])))
			default:
				return b, fmt.Errorf("delta: record node %d attr %q: unknown value tag %d", i, key, tag)
			}
		}
		b.Nodes = append(b.Nodes, na)
	}
	nEdges, err := binary.ReadUvarint(r)
	if err != nil {
		return b, fmt.Errorf("delta: record edge count: %v", err)
	}
	if nEdges > uint64(r.Len())+1 {
		return b, fmt.Errorf("delta: implausible edge count %d", nEdges)
	}
	for i := uint64(0); i < nEdges; i++ {
		from, err1 := binary.ReadUvarint(r)
		to, err2 := binary.ReadUvarint(r)
		kind, err3 := r.ReadByte()
		if err1 != nil || err2 != nil || err3 != nil {
			return b, fmt.Errorf("delta: record edge %d truncated", i)
		}
		if from > math.MaxInt32 || to > math.MaxInt32 || kind > 1 {
			return b, fmt.Errorf("delta: record edge %d malformed [%d %d %d]", i, from, to, kind)
		}
		b.Edges = append(b.Edges, EdgeAdd{From: graph.NodeID(from), To: graph.NodeID(to), Cross: kind == 1})
	}
	if r.Len() != 0 {
		return b, fmt.Errorf("delta: record has %d trailing bytes", r.Len())
	}
	// A payload must be the one encoding of its batch: a non-minimal
	// uvarint, or attribute keys repeated or out of order, decode
	// without error but re-encode to other bytes. A replica re-appends
	// every batch through encodeBatch and then fetches the primary's log
	// at its own size, so such a frame would leave it reading from
	// inside the next one.
	if !bytes.Equal(encodeBatch(&b), payload) {
		return b, errors.New("delta: record is not the canonical encoding of its batch")
	}
	return b, nil
}

// encodeHeader renders the log header for a base.
func encodeHeader(base BaseID) []byte {
	buf := make([]byte, 0, headerLen)
	buf = append(buf, LogMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(base.Nodes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(base.Edges))
	buf = binary.LittleEndian.AppendUint64(buf, base.Hash)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// ErrFrameCorrupt wraps every CRC or structure violation NextFrame
// detects inside a record frame. Replication tailers key off it: a
// corrupt frame in a fetched chunk is re-fetched from the last durable
// offset (transport damage heals), while the same error during a cold
// replay of the local file is hard corruption.
var ErrFrameCorrupt = errors.New("delta: corrupt record frame")

// ParseHeader verifies that raw begins with a delta log header and
// returns the base fingerprint it names. Exactly HeaderLen bytes are
// consumed; callers with less than HeaderLen bytes must wait for more.
func ParseHeader(raw []byte) (BaseID, error) {
	if len(raw) < headerLen {
		return BaseID{}, fmt.Errorf("delta: log header needs %d bytes, have %d", headerLen, len(raw))
	}
	if string(raw[:len(LogMagic)]) != LogMagic {
		return BaseID{}, fmt.Errorf("delta: missing %s magic", LogMagic)
	}
	if got := binary.LittleEndian.Uint32(raw[headerLen-4 : headerLen]); got != crc32.ChecksumIEEE(raw[:headerLen-4]) {
		return BaseID{}, errors.New("delta: log header CRC mismatch")
	}
	return BaseID{
		Nodes: int(binary.LittleEndian.Uint64(raw[8:16])),
		Edges: int(binary.LittleEndian.Uint64(raw[16:24])),
		Hash:  binary.LittleEndian.Uint64(raw[24:32]),
	}, nil
}

// NextFrame parses the record frame at the start of raw. It returns
// the decoded batch and the total frame length consumed. An incomplete
// frame (the tail of a chunk that ends mid-record, or a torn append)
// returns n == 0 with a nil error — the caller waits for more bytes.
// Any CRC or structure violation inside a complete-looking frame
// returns an error wrapping ErrFrameCorrupt. NextFrame does not
// validate edge endpoints against a vertex count; appliers do.
func NextFrame(raw []byte) (b Batch, n int, err error) {
	if len(raw) < 8 {
		return b, 0, nil // incomplete frame header
	}
	payLen := binary.LittleEndian.Uint32(raw[0:4])
	if got := binary.LittleEndian.Uint32(raw[4:8]); got != crc32.ChecksumIEEE(raw[0:4]) {
		return b, 0, fmt.Errorf("%w: length CRC mismatch", ErrFrameCorrupt)
	}
	if payLen > maxRecordBytes {
		return b, 0, fmt.Errorf("%w: implausible length %d", ErrFrameCorrupt, payLen)
	}
	total := 8 + int(payLen) + 4
	if len(raw) < total {
		return b, 0, nil // incomplete payload
	}
	payload := raw[8 : 8+payLen]
	if got := binary.LittleEndian.Uint32(raw[8+payLen : 8+payLen+4]); got != crc32.ChecksumIEEE(payload) {
		return b, 0, fmt.Errorf("%w: payload CRC mismatch", ErrFrameCorrupt)
	}
	b, err = decodeBatch(payload)
	if err != nil {
		return b, 0, fmt.Errorf("%w: %v", ErrFrameCorrupt, err)
	}
	return b, total, nil
}

// Replay reads a log from raw bytes, verifying it against base.
// It returns the decoded batches, the byte offset of the last complete
// record (callers truncate the file there before appending), and
// whether the file ended in a torn record. Any CRC or structure
// violation before the tail is a hard error.
func Replay(raw []byte, base BaseID) (batches []Batch, goodLen int, torn bool, err error) {
	if len(raw) < headerLen {
		return nil, 0, false, fmt.Errorf("delta: log shorter than its %d-byte header (%d bytes)", headerLen, len(raw))
	}
	if string(raw[:len(LogMagic)]) != LogMagic {
		return nil, 0, false, fmt.Errorf("delta: missing %s magic", LogMagic)
	}
	hdr := raw[:headerLen-4]
	if got := binary.LittleEndian.Uint32(raw[headerLen-4 : headerLen]); got != crc32.ChecksumIEEE(hdr) {
		return nil, 0, false, errors.New("delta: log header CRC mismatch")
	}
	logged := BaseID{
		Nodes: int(binary.LittleEndian.Uint64(raw[8:16])),
		Edges: int(binary.LittleEndian.Uint64(raw[16:24])),
		Hash:  binary.LittleEndian.Uint64(raw[24:32]),
	}
	if logged != base {
		return nil, 0, false, fmt.Errorf("delta: log written for base %s, loaded base is %s", logged, base)
	}

	off := headerLen
	vertices := base.Nodes
	for off < len(raw) {
		b, n, err := NextFrame(raw[off:])
		if err != nil {
			return nil, 0, false, fmt.Errorf("delta: record at offset %d: %w", off, err)
		}
		if n == 0 {
			return batches, off, true, nil // torn frame: crashed append
		}
		if err := b.Validate(vertices); err != nil {
			return nil, 0, false, fmt.Errorf("delta: record at offset %d: %w", off, err)
		}
		vertices += len(b.Nodes)
		batches = append(batches, b)
		off += n
	}
	return batches, off, false, nil
}

// Writer appends batches to a delta log file, one fsynced record per
// Append. Not safe for concurrent use — the catalog serializes all
// mutation of one dataset's log.
type Writer struct {
	f *os.File
}

// Create writes a fresh log for base at path (truncating any previous
// content) and returns an open writer.
func Create(path string, base BaseID) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(encodeHeader(base)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f}, nil
}

// Open replays an existing log against base and returns a writer
// positioned after the last complete record (a torn tail is truncated
// away). A file shorter than the header — the artifact of a crash
// between create and the header sync, before any record could have
// been appended (Append is only reachable after Create's sync) — is
// rewritten as a fresh log. A missing file is an error; callers decide
// between Open and Create.
func Open(path string, base BaseID) (*Writer, []Batch, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(raw) < headerLen {
		w, err := Create(path, base)
		return w, nil, err
	}
	batches, goodLen, torn, err := Replay(raw, base)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if torn {
		if err := f.Truncate(int64(goodLen)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(goodLen), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Writer{f: f}, batches, nil
}

// ReplayFile reads a log file without opening it for append.
func ReplayFile(path string, base BaseID) (batches []Batch, torn bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	batches, _, torn, err = Replay(raw, base)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	return batches, torn, nil
}

// Append writes one batch as a CRC-framed record and fsyncs: when
// Append returns, the batch survives a crash.
func (w *Writer) Append(b *Batch) error {
	if _, err := w.f.Write(encodeFrame(encodeBatch(b))); err != nil {
		return err
	}
	return w.f.Sync()
}

// encodeFrame wraps a payload in its record frame: length, length CRC,
// payload, payload CRC.
func encodeFrame(payload []byte) []byte {
	frame := make([]byte, 0, 12+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[0:4]))
	frame = append(frame, payload...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
}

// FoldMarkerSuffix names the compaction commit marker: written (with
// the post-fold base's fingerprint) before the folded base is
// published, removed after the folded log is deleted. It makes the
// two-file commit crash-recoverable — see ResolveFold.
const FoldMarkerSuffix = ".deltas.folded"

// WriteFoldMarker atomically and durably records that a fold into
// newBase is about to be (or was) published.
func WriteFoldMarker(path string, newBase BaseID) error {
	return atomicfile.WriteFile(path, encodeHeader(newBase))
}

// readFoldMarker parses a marker written by WriteFoldMarker.
func readFoldMarker(path string) (BaseID, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return BaseID{}, err
	}
	if len(raw) != headerLen || string(raw[:len(LogMagic)]) != LogMagic {
		return BaseID{}, fmt.Errorf("delta: %s: malformed fold marker", path)
	}
	if got := binary.LittleEndian.Uint32(raw[headerLen-4:]); got != crc32.ChecksumIEEE(raw[:headerLen-4]) {
		return BaseID{}, fmt.Errorf("delta: %s: fold marker CRC mismatch", path)
	}
	return BaseID{
		Nodes: int(binary.LittleEndian.Uint64(raw[8:16])),
		Edges: int(binary.LittleEndian.Uint64(raw[16:24])),
		Hash:  binary.LittleEndian.Uint64(raw[24:32]),
	}, nil
}

// ResolveFold recovers the compaction commit protocol for a dataset
// whose log is at logPath (marker at logPath-with-FoldMarkerSuffix
// — callers pass both). Compaction runs: (1) write marker holding the
// post-fold base id, (2) publish the folded base, (3) remove the log,
// (4) remove the marker. On load, a log whose header mismatches the
// current base is normally fatal (a replaced source must not absorb a
// stranger's deltas) — EXCEPT when the marker names exactly the base
// we loaded: then the fold committed and the crash hit between (2)
// and (4), so the leftover log is already folded in and is safely
// deleted. Returns folded=true when it consumed the leftovers; the
// caller then proceeds as if no log existed.
func ResolveFold(logPath, markerPath string, current BaseID) (folded bool, err error) {
	marked, err := readFoldMarker(markerPath)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if marked != current {
		// Stale marker from a fold that never published (crash between
		// (1) and (2)): the live log still matches the live base;
		// drop the marker and replay normally.
		return false, os.Remove(markerPath)
	}
	if err := os.Remove(logPath); err != nil && !os.IsNotExist(err) {
		return false, err
	}
	if err := os.Remove(markerPath); err != nil && !os.IsNotExist(err) {
		return false, err
	}
	return true, nil
}

// Close flushes and closes the file. Close is idempotent.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	f := w.f
	w.f = nil
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
