package graph

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestImageRoundTrip decodes the image of random multigraphs (see
// randomModel) and of the empty graph, and checks that the decoded graph
// is the frozen one: it encodes to the same image, it derives the same
// in-adjacency, label index, attribute bitset and name maps, and no
// array keeps spare capacity. Its SCC map round-trips too.
func TestImageRoundTrip(t *testing.T) {
	graphs := []*Graph{New(0, 0)}
	for seed := int64(0); seed < 50; seed++ {
		_, g := randomModel(rand.New(rand.NewSource(seed)))
		graphs = append(graphs, g)
	}
	for i, g := range graphs {
		g.Freeze()
		img := g.AppendImage(nil)
		d := NewDecoder(img)
		g2, err := DecodeImage(d)
		if err != nil || d.Len() != 0 {
			t.Fatalf("graph %d: decode: %v, %d bytes left", i, err, d.Len())
		}
		if !bytes.Equal(g2.AppendImage(nil), img) {
			t.Fatalf("graph %d: the decoded graph encodes differently", i)
		}
		for _, c := range []struct {
			name      string
			want, got csr[NodeID]
		}{{"in", g.in, g2.in}, {"byLabel", g.byLabel, g2.byLabel}} {
			if !slices.Equal(c.want.off, c.got.off) || !slices.Equal(c.want.val, c.got.val) {
				t.Fatalf("graph %d: %s differs from the frozen graph's", i, c.name)
			}
		}
		if !slices.Equal(g.hasAttrs, g2.hasAttrs) || !maps.Equal(g.labelID, g2.labelID) || !maps.Equal(g.attrNameID, g2.attrNameID) {
			t.Fatalf("graph %d: attribute bitset or name maps differ from the frozen graph's", i)
		}
		for _, a := range []struct {
			name     string
			len, cap int
		}{
			{"labelOf", len(g2.labelOf), cap(g2.labelOf)},
			{"labelTab", len(g2.labelTab), cap(g2.labelTab)},
			{"out.off", len(g2.out.off), cap(g2.out.off)},
			{"out.val", len(g2.out.val), cap(g2.out.val)},
			{"in.off", len(g2.in.off), cap(g2.in.off)},
			{"in.val", len(g2.in.val), cap(g2.in.val)},
			{"cross", len(g2.cross), cap(g2.cross)},
			{"byLabel.val", len(g2.byLabel.val), cap(g2.byLabel.val)},
			{"hasAttrs", len(g2.hasAttrs), cap(g2.hasAttrs)},
			{"attrNode", len(g2.attrNode), cap(g2.attrNode)},
			{"attrs.off", len(g2.attrs.off), cap(g2.attrs.off)},
			{"attrs.val", len(g2.attrs.val), cap(g2.attrs.val)},
			{"attrName", len(g2.attrName), cap(g2.attrName)},
			{"attrStr", len(g2.attrStr), cap(g2.attrStr)},
		} {
			if a.cap != a.len {
				t.Errorf("graph %d: decoded %s has len %d, cap %d", i, a.name, a.len, a.cap)
			}
		}

		c := Condense(g)
		d = NewDecoder(c.SCCMap.AppendImage(nil))
		m, err := DecodeSCCMap(d, g2, c.NumSCC())
		if err != nil || d.Len() != 0 {
			t.Fatalf("graph %d: SCC map: %v, %d bytes left", i, err, d.Len())
		}
		if !slices.Equal(m.Comp, c.Comp) || !slices.Equal(m.cyclic, c.cyclic) {
			t.Fatalf("graph %d: the SCC map does not round-trip", i)
		}
	}
}
