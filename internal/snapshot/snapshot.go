// Package snapshot persists a data graph together with its built
// reachability index so a server cold-starts in milliseconds instead
// of re-running index construction.
//
// File layout (version 1):
//
//	magic   "GTPQSNAP" (8 bytes)
//	version uint16 little endian (currently 1)
//	kind    index backend name (uvarint length + bytes)
//	graph section:
//	  uvarint nodeCount
//	  per node: label string, uvarint attrCount,
//	            per attr (keys strictly ascending): key string, tag byte
//	            (0 string / 1 number), value (string, or float64 bits
//	            as little-endian uint64)
//	  uvarint treeEdgeCount, per edge: uvarint from, uvarint to
//	  uvarint crossEdgeCount, per edge: uvarint from, uvarint to
//	index section: uvarint blob length + blob (the backend codec's
//	  reach.MarshalBinary payload, see internal/reach/codec.go)
//
// Strings are uvarint length + raw bytes. The format is
// deliberately raw binary (no compression): loading is bounded by
// allocation, not decoding, and callers who want smaller files can
// layer gzip themselves.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// Magic identifies snapshot files; LoadFile and cmd/gtpq sniff it.
const Magic = "GTPQSNAP"

// Version is the current format version.
const Version = 1

// ErrNotSnapshot reports that the input does not start with the
// snapshot magic (callers fall back to other graph formats on it).
var ErrNotSnapshot = errors.New("snapshot: missing GTPQSNAP magic")

// Save writes g and its built index h to w. The index kind must have a
// registered codec (both built-in backends do).
func Save(w io.Writer, g *graph.Graph, h reach.ContourIndex) error {
	blob, err := reach.MarshalIndex(h)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	var scratch []byte
	writeUvarint := func(v uint64) {
		scratch = binary.AppendUvarint(scratch[:0], v)
		bw.Write(scratch)
	}
	writeString := func(s string) {
		writeUvarint(uint64(len(s)))
		bw.WriteString(s)
	}
	bw.Write([]byte{Version & 0xff, Version >> 8})
	writeString(h.Kind())

	// Graph section.
	n := g.N()
	writeUvarint(uint64(n))
	for v := 0; v < n; v++ {
		nv := graph.NodeID(v)
		writeString(g.Label(nv))
		keys := g.AttrKeys(nv) // sorted
		writeUvarint(uint64(len(keys)))
		for _, k := range keys {
			val, _ := g.Attr(nv, k)
			writeString(k)
			if val.IsNum {
				bw.WriteByte(1)
				scratch = binary.LittleEndian.AppendUint64(scratch[:0], math.Float64bits(val.Num))
				bw.Write(scratch)
			} else {
				bw.WriteByte(0)
				writeString(val.Str)
			}
		}
	}
	var tree, cross [][2]uint64
	for v := 0; v < n; v++ {
		nv := graph.NodeID(v)
		for _, w := range g.Out(nv) {
			pair := [2]uint64{uint64(v), uint64(w)}
			if g.EdgeKindOf(nv, w) == graph.CrossEdge {
				cross = append(cross, pair)
			} else {
				tree = append(tree, pair)
			}
		}
	}
	for _, edges := range [][][2]uint64{tree, cross} {
		writeUvarint(uint64(len(edges)))
		for _, e := range edges {
			writeUvarint(e[0])
			writeUvarint(e[1])
		}
	}

	// Index section.
	writeUvarint(uint64(len(blob)))
	bw.Write(blob)
	return bw.Flush()
}

// Load reads a snapshot: the graph is rebuilt (and frozen) and the
// index revived through its codec — no index construction happens.
func Load(r io.Reader) (*graph.Graph, reach.ContourIndex, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != Magic {
		return nil, nil, ErrNotSnapshot
	}
	var verBytes [2]byte
	if _, err := io.ReadFull(br, verBytes[:]); err != nil {
		return nil, nil, fmt.Errorf("snapshot: truncated header: %v", err)
	}
	if ver := int(verBytes[0]) | int(verBytes[1])<<8; ver != Version {
		return nil, nil, fmt.Errorf("snapshot: unsupported version %d (this build reads %d)", ver, Version)
	}
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }
	readString := func() (string, error) {
		ln, err := readUvarint()
		if err != nil {
			return "", err
		}
		if ln > 1<<24 {
			return "", fmt.Errorf("snapshot: implausible string length %d", ln)
		}
		b := make([]byte, ln)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}

	kind, err := readString()
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: reading index kind: %v", err)
	}

	n64, err := readUvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: reading node count: %v", err)
	}
	if n64 > math.MaxInt32 {
		return nil, nil, fmt.Errorf("snapshot: implausible node count %d", n64)
	}
	n := int(n64)
	// Clamp the capacity hint: the count is untrusted until that many
	// nodes have actually been decoded, so a lying header must not
	// drive a giant allocation (a short file errors on the first
	// missing node instead).
	hint := n
	if hint > 1<<20 {
		hint = 1 << 20
	}
	g := graph.New(hint, 0)
	attrs := graph.Attrs{} // reused: AddNode copies it
	for v := 0; v < n; v++ {
		label, err := readString()
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot: node %d: %v", v, err)
		}
		nattr, err := readUvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot: node %d: %v", v, err)
		}
		if nattr > 1<<20 {
			return nil, nil, fmt.Errorf("snapshot: node %d declares %d attributes", v, nattr)
		}
		clear(attrs)
		prev := ""
		for i := uint64(0); i < nattr; i++ {
			key, err := readString()
			if err != nil {
				return nil, nil, fmt.Errorf("snapshot: node %d attr: %v", v, err)
			}
			// Save writes keys sorted, so a repeated or out-of-order key
			// is corruption, not a value to overwrite.
			if i > 0 && key <= prev {
				return nil, nil, fmt.Errorf("snapshot: node %d attr %q follows %q: keys must be strictly ascending", v, key, prev)
			}
			prev = key
			tag, err := br.ReadByte()
			if err != nil {
				return nil, nil, fmt.Errorf("snapshot: node %d attr %q: %v", v, key, err)
			}
			switch tag {
			case 0:
				s, err := readString()
				if err != nil {
					return nil, nil, fmt.Errorf("snapshot: node %d attr %q: %v", v, key, err)
				}
				attrs[key] = graph.StrV(s)
			case 1:
				var b [8]byte
				if _, err := io.ReadFull(br, b[:]); err != nil {
					return nil, nil, fmt.Errorf("snapshot: node %d attr %q: %v", v, key, err)
				}
				attrs[key] = graph.NumV(math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
			default:
				return nil, nil, fmt.Errorf("snapshot: node %d attr %q: unknown value tag %d", v, key, tag)
			}
		}
		g.AddNode(label, attrs)
	}
	for pass, add := range []func(u, v graph.NodeID){g.AddEdge, g.AddCrossEdge} {
		count, err := readUvarint()
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot: reading edge count: %v", err)
		}
		for i := uint64(0); i < count; i++ {
			u, err1 := readUvarint()
			v, err2 := readUvarint()
			if err1 != nil || err2 != nil {
				return nil, nil, fmt.Errorf("snapshot: truncated edge section %d", pass)
			}
			if u >= uint64(n) || v >= uint64(n) {
				return nil, nil, fmt.Errorf("snapshot: edge [%d %d] out of range (%d nodes)", u, v, n)
			}
			add(graph.NodeID(u), graph.NodeID(v))
		}
	}
	g.Freeze()

	blobLen, err := readUvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: reading index blob length: %v", err)
	}
	if blobLen > math.MaxInt32 {
		return nil, nil, fmt.Errorf("snapshot: implausible index blob length %d", blobLen)
	}
	// ReadAll grows incrementally, so a lying length on a truncated
	// file errors out below without a giant up-front allocation.
	blob, err := io.ReadAll(io.LimitReader(br, int64(blobLen)))
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: reading index blob: %v", err)
	}
	if uint64(len(blob)) != blobLen {
		return nil, nil, fmt.Errorf("snapshot: truncated index blob: %d of %d bytes", len(blob), blobLen)
	}
	h, err := reach.UnmarshalIndex(kind, g, blob)
	if err != nil {
		return nil, nil, err
	}
	return g, h, nil
}

// SaveFile writes the snapshot atomically (temp file + rename).
func SaveFile(path string, g *graph.Graph, h reach.ContourIndex) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := Save(tmp, g, h); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile reads a snapshot file.
func LoadFile(path string) (*graph.Graph, reach.ContourIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	g, h, err := Load(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, h, nil
}
