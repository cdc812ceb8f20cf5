// Package snapshot persists a data graph together with its built
// reachability index, so a server cold-starts by reading a file instead
// of re-running index construction.
//
// A version-2 file is the resident image: the arrays the frozen graph
// and the index keep in memory, written as they are. Loading one is one
// read, a copy of each array and an O(V+E) validation; nothing is
// re-derived but what the graph derives at Freeze (its in-adjacency and
// label index) and the chain id of each 3-hop position.
//
// File layout (version 2; integers are little endian, a uvarint count
// precedes every array whose length the reader cannot derive):
//
//	magic   "GTPQSNAP" (8 bytes)
//	version uint16 (2)
//	kind    index backend name (uvarint length + bytes)
//	graph   the frozen graph's arrays (graph.Graph.AppendImage): label
//	        table and per-node label ids, out-adjacency offsets and
//	        targets, the cross-edge bitset, attribute names and string
//	        values, and the attribute rows (node ids, offsets, entries)
//	index   the backend's arrays (reach.AppendIndex): for threehop the
//	        chain offsets, the node -> position map and cycle bits, and
//	        both gap-coded Lin/Lout families (offsets + bytes); for tc
//	        the node -> SCC map, cycle bits and the closure rows
//	crc     CRC-32C (Castagnoli) of every byte before it, uint32
//
// Load refuses an image that breaks an invariant Freeze or the index
// build establishes. It checks the CRC first; then that offsets start
// at 0, never decrease and tile their payload; that out rows ascend
// within [0, n); that parallel edges share one cross bit and no bit is
// set past E; that attribute rows are sorted by name, use valid ids and
// give a string value no number; that every string table holds
// distinct strings in order of first use; that 3-hop chains are
// non-empty and tile [0, K); that the node -> SCC map renumbers
// graph.Components one to one and the cycle bits are the recomputed
// ones; that every list row decodes inside its row, with minimal
// varints, to positions below K; and that nothing trails the index. An accepted image therefore saves back to the same
// bytes, and every decoded array is an exact-length copy that shares
// nothing with the file's buffer.
//
// Version 1, which stored nodes, attributes and edges one by one and
// named 3-hop SCCs by their Tarjan ids, is read-only: Load still
// accepts it (loadV1), decoding its graph and rebuilding its index from
// that graph instead of decoding the stored one, and Save writes
// version 2 only. A build older than version 2 refuses a version-2
// file by its version number.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"gtpq/internal/atomicfile"
	"gtpq/internal/graph"
	"gtpq/internal/reach"
)

// Magic identifies snapshot files; LoadFile and cmd/gtpq sniff it.
const Magic = "GTPQSNAP"

// Version is the format version Save writes.
const Version = 2

// ErrNotSnapshot reports that the input does not start with the
// snapshot magic (callers fall back to other graph formats on it).
var ErrNotSnapshot = errors.New("snapshot: missing GTPQSNAP magic")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save writes g and its built index h to w as one version-2 image. h
// must be one of the backends reach.AppendIndex encodes (reach.Kinds).
func Save(w io.Writer, g *graph.Graph, h reach.ContourIndex) error {
	b := append([]byte(Magic), Version&0xff, Version>>8)
	b = binary.AppendUvarint(b, uint64(len(h.Kind())))
	b = append(b, h.Kind()...)
	b = g.AppendImage(b)
	b, err := reach.AppendIndex(b, h)
	if err != nil {
		return err
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	_, err = w.Write(b)
	return err
}

// Decode reads a snapshot held in data, of either version. A version-2
// image revives the graph and index without any index construction; a
// version-1 file costs one index build (loadV1). data is only read;
// nothing returned refers to it.
func Decode(data []byte) (*graph.Graph, reach.ContourIndex, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, nil, ErrNotSnapshot
	}
	if len(data) < len(Magic)+2 {
		return nil, nil, errors.New("snapshot: truncated header")
	}
	switch ver := int(data[len(Magic)]) | int(data[len(Magic)+1])<<8; ver {
	case 1:
		return loadV1(bytes.NewReader(data[len(Magic)+2:]))
	case Version:
		return decodeV2(data)
	default:
		return nil, nil, fmt.Errorf("snapshot: unsupported version %d (this build reads 1 and %d)", ver, Version)
	}
}

// decodeV2 decodes a version-2 file, header included.
func decodeV2(data []byte) (*graph.Graph, reach.ContourIndex, error) {
	const header = len(Magic) + 2
	if len(data) < header+4 {
		return nil, nil, errors.New("snapshot: truncated image")
	}
	body := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, nil, fmt.Errorf("snapshot: CRC-32C %08x, file says %08x (truncated or damaged)", got, want)
	}
	d := graph.NewDecoder(body[header:])
	kind := string(d.Bytes(d.Count(1)))
	if d.Err() != nil {
		return nil, nil, fmt.Errorf("snapshot: reading index kind: %w", d.Err())
	}
	g, err := graph.DecodeImage(d)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	h, err := reach.DecodeIndex(kind, g, d)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	if d.Len() != 0 {
		return nil, nil, fmt.Errorf("snapshot: %d bytes trail the index", d.Len())
	}
	return g, h, nil
}

// Load reads a snapshot from r, of either version (see Decode).
func Load(r io.Reader) (*graph.Graph, reach.ContourIndex, error) {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != Magic {
		return nil, nil, ErrNotSnapshot
	}
	data, err := io.ReadAll(io.MultiReader(bytes.NewReader(magic), r))
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	return Decode(data)
}

// loadV1 decodes a version-1 file from br, which starts after the
// version: the nodes, attributes and edges are added one by one and
// frozen, and the index of the stored kind is built over the graph. The
// index payload is only checked to be all there.
func loadV1(br *bytes.Reader) (*graph.Graph, reach.ContourIndex, error) {
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
	// reach.Build would take an empty kind for its default.
	if !slices.Contains(reach.Kinds(), kind) {
		return nil, nil, fmt.Errorf("snapshot: unknown index kind %q (available: %v)", kind, reach.Kinds())
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

	// The index is a function of the graph, so a build gives the index
	// the payload holds, and the payload is skipped.
	blobLen, err := readUvarint()
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: reading index blob length: %v", err)
	}
	if blobLen > uint64(br.Len()) {
		return nil, nil, fmt.Errorf("snapshot: truncated index blob: %d of %d bytes", br.Len(), blobLen)
	}
	h, err := reach.Build(kind, g)
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: %w", err)
	}
	return g, h, nil
}

// SaveFile writes the snapshot atomically and durably (see
// internal/atomicfile).
func SaveFile(path string, g *graph.Graph, h reach.ContourIndex) error {
	return atomicfile.Write(path, func(w io.Writer) error { return Save(w, g, h) })
}

// LoadFile reads a snapshot file (see Decode).
func LoadFile(path string) (*graph.Graph, reach.ContourIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	g, h, err := readFile(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, h, nil
}

// readFile reads f into one buffer sized from its Stat and decodes it;
// a file without the magic is not read past it.
func readFile(f *os.File) (*graph.Graph, reach.ContourIndex, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if fi.Size() < int64(len(Magic)) {
		return nil, nil, ErrNotSnapshot
	}
	buf := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, buf[:len(Magic)]); err != nil || string(buf[:len(Magic)]) != Magic {
		return nil, nil, ErrNotSnapshot
	}
	if _, err := io.ReadFull(f, buf[len(Magic):]); err != nil {
		return nil, nil, fmt.Errorf("snapshot: reading: %w", err)
	}
	return Decode(buf)
}
