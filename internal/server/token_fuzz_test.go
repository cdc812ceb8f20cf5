package server

import (
	"encoding/base64"
	"testing"

	"gtpq/internal/catalog"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
)

// FuzzPageToken feeds arbitrary continuation tokens to decodePageToken
// and arbitrary offsets to encodePageToken. Decoding must never panic
// and must never accept a negative offset; a token minted for an
// offset must decode back to it (or, for a negative offset, be
// refused).
func FuzzPageToken(f *testing.F) {
	g := graph.New(1, 0)
	g.AddNode("a", nil)
	ds := &catalog.Dataset{Name: "ds", Generation: 7, Engine: gtea.New(g)}
	const canon = "node x label=a output"
	minted := encodePageToken(ds, canon, 42)
	next := &catalog.Dataset{Name: ds.Name, Generation: ds.Generation + 1, Engine: ds.Engine}
	f.Add(minted, int64(42))
	f.Add(encodePageToken(next, canon, 3), int64(3)) // another generation
	f.Add(minted[:len(minted)/2], int64(0))          // truncated base64
	f.Add(base64.RawURLEncoding.EncodeToString([]byte("not json")), int64(-1))

	f.Fuzz(func(t *testing.T, tok string, off int64) {
		if got, err := decodePageToken(tok, ds, canon); err == nil && got < 0 {
			t.Fatalf("accepted %q with offset %d", tok, got)
		}
		got, err := decodePageToken(encodePageToken(ds, canon, off), ds, canon)
		switch {
		case off >= 0 && (err != nil || got != off):
			t.Fatalf("minted offset %d decoded to %d, %v", off, got, err)
		case off < 0 && err == nil:
			t.Fatalf("minted negative offset %d was accepted as %d", off, got)
		}
	})
}
