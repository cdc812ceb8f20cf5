package delta

import (
	"bytes"
	"errors"
	"testing"
)

// nonCanonicalPayloads decode without a structural error but re-encode
// to other bytes; NextFrame must refuse each. All of them add one node
// labelled "a" and no edges.
var nonCanonicalPayloads = map[string][]byte{
	// The node count 1 written in two bytes (0x81 0x00).
	"non-minimal uvarint": {0x81, 0x00, 0x01, 'a', 0x00, 0x00},
	// Attribute k twice, "x" then "y": it decodes to k = "y".
	"repeated key": {0x01, 0x01, 'a', 0x02, 0x01, 'k', 0x00, 0x01, 'x', 0x01, 'k', 0x00, 0x01, 'y', 0x00},
	// Attributes k then j: encodeBatch writes j first.
	"unsorted keys": {0x01, 0x01, 'a', 0x02, 0x01, 'k', 0x00, 0x01, 'x', 0x01, 'j', 0x00, 0x01, 'y', 0x00},
}

// TestNextFrameRefusesNonCanonicalPayloads checks that a frame whose
// payload is not the encoding of the batch it decodes to is corrupt,
// while the canonical encoding of the same batch is accepted.
func TestNextFrameRefusesNonCanonicalPayloads(t *testing.T) {
	canonical := []byte{0x01, 0x01, 'a', 0x00, 0x00}
	if b, n, err := NextFrame(encodeFrame(canonical)); err != nil || n != 8+len(canonical)+4 || len(b.Nodes) != 1 {
		t.Fatalf("canonical payload: batch %+v, n %d, err %v", b, n, err)
	}
	for name, payload := range nonCanonicalPayloads {
		t.Run(name, func(t *testing.T) {
			_, n, err := NextFrame(encodeFrame(payload))
			if !errors.Is(err, ErrFrameCorrupt) || n != 0 {
				t.Fatalf("n %d, err %v; want 0 and ErrFrameCorrupt", n, err)
			}
		})
	}
}

// FuzzNextFrame checks that NextFrame never panics, consumes no more
// than it was given, and accepts only a frame whose payload re-encodes
// to itself. Each input is tried as raw bytes and, so that mutations
// reach the payload decoder behind the CRCs, as the payload of a
// correctly framed record.
func FuzzNextFrame(f *testing.F) {
	b := Batch{
		Nodes: []NodeAdd{{Label: "a"}},
		Edges: []EdgeAdd{{From: 0, To: 1}, {From: 1, To: 0, Cross: true}},
	}
	frame := encodeFrame(encodeBatch(&b))
	f.Add(frame)
	f.Add(frame[:len(frame)-3]) // torn
	for _, payload := range nonCanonicalPayloads {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, encodeFrame(data)} {
			b, n, err := NextFrame(raw)
			if n < 0 || n > len(raw) {
				t.Fatalf("consumed %d of %d bytes", n, len(raw))
			}
			if err != nil || n == 0 {
				continue
			}
			if payload := raw[8 : n-4]; !bytes.Equal(encodeBatch(&b), payload) {
				t.Fatalf("accepted payload % x re-encodes to % x", payload, encodeBatch(&b))
			}
		}
	})
}
