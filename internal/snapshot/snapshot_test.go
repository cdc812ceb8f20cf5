package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"gtpq/internal/arxiv"
	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/qlang"
	"gtpq/internal/reach"
	"gtpq/internal/xmark"
)

// randAttrGraph builds a random labeled graph with mixed string/number
// attributes and some cross edges, exercising every branch of the
// graph section codec.
func randAttrGraph(r *rand.Rand, n, m int) *graph.Graph {
	labels := []string{"a", "b", "c", "d"}
	g := graph.New(n, m)
	for i := 0; i < n; i++ {
		var attrs graph.Attrs
		switch r.Intn(3) {
		case 0:
			attrs = graph.Attrs{"year": graph.NumV(float64(1990 + r.Intn(30)))}
		case 1:
			attrs = graph.Attrs{
				"year": graph.NumV(float64(1990 + r.Intn(30))),
				"name": graph.StrV(fmt.Sprintf("n%d", r.Intn(10))),
			}
		}
		g.AddNode(labels[r.Intn(len(labels))], attrs)
	}
	for e := 0; e < m; e++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if r.Intn(5) == 0 {
			g.AddCrossEdge(u, v)
		} else {
			g.AddEdge(u, v)
		}
	}
	g.Freeze()
	return g
}

var testQueries = []string{
	"node x label=a output",
	`node x label=a output
pnode y label=b parent=x edge=ad
pred x: y`,
	`node x label=a output
node y label=b parent=x edge=ad output
pnode z label=c parent=y edge=pc
pnode w label=d parent=y edge=ad
pred y: z | !w`,
	`node x label=b output
node y label=c parent=x edge=pc output
where x: year>=2000`,
}

func parsedQueries(t *testing.T) []*core.Query {
	t.Helper()
	qs := make([]*core.Query, len(testQueries))
	for i, src := range testQueries {
		q, err := qlang.Parse(src)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		qs[i] = q
	}
	return qs
}

// TestRoundTripProperty is the snapshot correctness property: for
// random graphs and both backends, build → save → load must preserve
// the index kind and size, save back to the same bytes and answer every
// query as core.EvalNaive does over the original graph — and loading
// must perform zero index-construction work (reach.BuildCount stays
// flat across Load).
func TestRoundTripProperty(t *testing.T) {
	qs := parsedQueries(t)
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(900 + seed))
		g := randAttrGraph(r, 20+r.Intn(60), 40+r.Intn(200))
		oracle := reach.NewTC(g)
		for _, kind := range reach.Kinds() {
			e, err := gtea.NewWithOptions(g, gtea.Options{Index: kind})
			if err != nil {
				t.Fatalf("seed %d %s: build: %v", seed, kind, err)
			}
			var buf bytes.Buffer
			if err := Save(&buf, g, e.H); err != nil {
				t.Fatalf("seed %d %s: save: %v", seed, kind, err)
			}

			before := reach.BuildCount()
			g2, h2, err := Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("seed %d %s: load: %v", seed, kind, err)
			}
			if built := reach.BuildCount() - before; built != 0 {
				t.Fatalf("seed %d %s: load performed %d index constructions, want 0", seed, kind, built)
			}
			if h2.Kind() != kind {
				t.Fatalf("seed %d: loaded kind %q, want %q", seed, h2.Kind(), kind)
			}
			if h2.IndexSize() != e.H.IndexSize() {
				t.Fatalf("seed %d %s: loaded index size %d, want %d", seed, kind, h2.IndexSize(), e.H.IndexSize())
			}
			if g2.N() != g.N() || g2.M() != g.M() {
				t.Fatalf("seed %d %s: loaded graph %d/%d nodes/edges, want %d/%d",
					seed, kind, g2.N(), g2.M(), g.N(), g.M())
			}
			var again bytes.Buffer
			if err := Save(&again, g2, h2); err != nil {
				t.Fatalf("seed %d %s: re-save: %v", seed, kind, err)
			}
			if !bytes.Equal(again.Bytes(), buf.Bytes()) {
				t.Fatalf("seed %d %s: a loaded snapshot saves to other bytes", seed, kind)
			}
			e2 := gtea.NewWithIndex(g2, h2, gtea.Options{})
			for i, q := range qs {
				want := core.EvalNaive(g, oracle, q)
				if got := e2.Eval(q); !want.Equal(got) {
					t.Fatalf("seed %d %s: query %d differs from core.EvalNaive after round trip:\nwant %v\ngot  %v",
						seed, kind, i, want, got)
				}
			}
		}
	}
}

// TestFileRoundTrip covers the atomic SaveFile/LoadFile path: the
// loaded engine answers every query as core.EvalNaive does.
func TestFileRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := randAttrGraph(r, 40, 120)
	e := gtea.New(g)
	path := filepath.Join(t.TempDir(), "data.snap")
	if err := SaveFile(path, g, e.H); err != nil {
		t.Fatal(err)
	}
	g2, h2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Kind() != e.H.Kind() || g2.N() != g.N() {
		t.Fatalf("file round trip mismatch: kind %q n %d", h2.Kind(), g2.N())
	}
	e2 := gtea.NewWithIndex(g2, h2, gtea.Options{})
	oracle := reach.NewTC(g)
	for i, q := range parsedQueries(t) {
		if want, got := core.EvalNaive(g, oracle, q), e2.Eval(q); !want.Equal(got) {
			t.Fatalf("query %d differs from core.EvalNaive after file round trip:\nwant %v\ngot  %v", i, want, got)
		}
	}
}

// TestLoadRejectsBadInput checks the defensive decoding paths.
func TestLoadRejectsBadInput(t *testing.T) {
	if _, _, err := Load(bytes.NewReader([]byte("not a snapshot at all"))); err != ErrNotSnapshot {
		t.Fatalf("garbage input: got %v, want ErrNotSnapshot", err)
	}
	if _, _, err := Load(bytes.NewReader([]byte(Magic + "\xff\xff"))); err == nil {
		t.Fatal("future version accepted")
	}

	r := rand.New(rand.NewSource(7))
	g := randAttrGraph(r, 20, 60)
	e := gtea.New(g)
	var buf bytes.Buffer
	if err := Save(&buf, g, e.H); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(Magic) + 1, len(full) / 2, len(full) - 1} {
		if _, _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestLoadNeverPanicsOnCorruptInput exhaustively truncates a valid
// snapshot at every offset and flips bytes throughout: Load (and the
// index codecs underneath) must return errors, never panic — a bad
// .snap file must not be able to take down a serving process. Both
// backends are exercised since they have separate codecs, in both
// versions; a flipped version-2 image is loaded as it is and with its
// CRC fixed up, so the validation behind the CRC is exercised too.
func TestLoadNeverPanicsOnCorruptInput(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randAttrGraph(r, 25, 70)
	for _, kind := range reach.Kinds() {
		e, err := gtea.NewWithOptions(g, gtea.Options{Index: kind})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, g, e.H); err != nil {
			t.Fatal(err)
		}
		for _, full := range [][]byte{buf.Bytes(), saveV1(t, g, e.H)} {
			for cut := 0; cut < len(full); cut++ {
				Load(bytes.NewReader(full[:cut])) // must not panic
			}
			for off := len(Magic) + 2; off < len(full); off++ {
				for _, flip := range []byte{0xff, 0x80, 0x01} {
					mut := append([]byte(nil), full...)
					mut[off] ^= flip
					for _, data := range [][]byte{mut, withCRC(mut)} {
						if g2, h2, err := Load(bytes.NewReader(data)); err == nil {
							// A mutation may survive decoding (e.g. inside an
							// attribute value); whatever loads must be usable.
							_ = h2.IndexSize()
							_ = g2.N()
						}
					}
				}
			}
		}
	}
}

// withCRC returns a copy of data with the trailing CRC of a version-2
// image recomputed, or data itself when it is not one.
func withCRC(data []byte) []byte {
	if len(data) < len(Magic)+6 || string(data[:len(Magic)]) != Magic || data[len(Magic)] != Version || data[len(Magic)+1] != 0 {
		return data
	}
	body := data[:len(data)-4]
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, castagnoli))
}

// dupKeySnapshot is the version-1 snapshot of one node with the
// attributes {qq: "one", zz: "two"}, with the second key rewritten to
// qq: a node that names one attribute twice.
func dupKeySnapshot(tb testing.TB) []byte {
	g := graph.New(1, 0)
	g.AddNode("n", graph.Attrs{"qq": graph.StrV("one"), "zz": graph.StrV("two")})
	g.Freeze()
	data := saveV1(tb, g, reach.NewThreeHop(g))
	i := bytes.Index(data, []byte("\x02zz"))
	if i < 0 || bytes.Count(data, []byte("zz")) != 1 {
		tb.Fatalf("no unique key zz in % x", data)
	}
	copy(data[i+1:], "qq")
	return data
}

// TestLoadRejectsRepeatedAttrKey: a version-1 file lists a node's keys
// strictly ascending, so a repeated key is corruption. Decoding into a
// map used to keep the last value and drop the other silently.
func TestLoadRejectsRepeatedAttrKey(t *testing.T) {
	data := dupKeySnapshot(t)
	if g, _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatalf("a node naming qq twice loaded, with attributes %v", g.AttrKeys(0))
	}
}

// sameNodes reports the first node whose label or explicit attributes
// differ between g1 and g2; numbers compare by their bits, so NaN
// round-trips too.
func sameNodes(g1, g2 *graph.Graph) error {
	if g1.N() != g2.N() {
		return fmt.Errorf("%d nodes, then %d", g1.N(), g2.N())
	}
	for v := graph.NodeID(0); int(v) < g1.N(); v++ {
		k1, k2 := g1.AttrKeys(v), g2.AttrKeys(v)
		if g1.Label(v) != g2.Label(v) || !slices.Equal(k1, k2) {
			return fmt.Errorf("node %d: %q %v, then %q %v", v, g1.Label(v), k1, g2.Label(v), k2)
		}
		for _, k := range k1 {
			a, _ := g1.Attr(v, k)
			b, _ := g2.Attr(v, k)
			if a.IsNum != b.IsNum || a.Str != b.Str || math.Float64bits(a.Num) != math.Float64bits(b.Num) {
				return fmt.Errorf("node %d attr %q: %#v, then %#v", v, k, a, b)
			}
		}
	}
	return nil
}

// FuzzSnapshotLoad feeds Load arbitrary bytes, each input as it is and,
// when it is a version-2 image, with its CRC fixed up, so that mutations
// reach the validation behind the CRC. Load must never panic. A
// version-2 image it accepts must save back to itself: Save(Load(x)) ==
// x. A version-1 file it accepts must reach a fixed point: Save(Load(x))
// loads again, with the same labels and attributes, and saves to the
// same bytes (x itself is not that fixed point: it is version 1, its
// edges may come in any order, and a pair joined by a tree and a cross
// edge is cross throughout).
func FuzzSnapshotLoad(f *testing.F) {
	save := func(g *graph.Graph, h reach.ContourIndex) []byte {
		var buf bytes.Buffer
		if err := Save(&buf, g, h); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	site, _ := xmark.Generate(xmark.Config{Scale: 1, PersonsPerUnit: 10, Seed: 7})
	siteIndex := reach.NewThreeHop(site)
	f.Add(save(site, siteIndex))
	ax, _ := arxiv.Generate(arxiv.Config{
		Papers: 500, Authors: 250, AuthorsPerPaper: 2.5, CitesPerPaper: 1.8,
		Window: 100, PaperLabels: 60, AuthorLabels: 40, Seed: 11,
	})
	f.Add(save(ax, reach.NewTC(ax)))
	f.Add(dupKeySnapshot(f))
	f.Add(saveV1(f, site, siteIndex))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, x := range [][]byte{data, withCRC(data)} {
			g1, h1, err := Load(bytes.NewReader(x))
			if err != nil {
				continue
			}
			var y bytes.Buffer
			if err := Save(&y, g1, h1); err != nil {
				t.Fatalf("save of an accepted snapshot: %v", err)
			}
			if x[len(Magic)] == Version {
				if !bytes.Equal(y.Bytes(), x) {
					t.Fatalf("an accepted version-2 image of %d bytes saves to %d other bytes", len(x), y.Len())
				}
				continue
			}
			g2, h2, err := Load(bytes.NewReader(y.Bytes()))
			if err != nil {
				t.Fatalf("re-saved snapshot does not load: %v", err)
			}
			if err := sameNodes(g1, g2); err != nil {
				t.Fatalf("attributes do not round-trip: %v", err)
			}
			var z bytes.Buffer
			if err := Save(&z, g2, h2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(y.Bytes(), z.Bytes()) {
				t.Fatalf("Save(Load(x)) is not a fixed point: %d bytes, then %d", y.Len(), z.Len())
			}
		}
	})
}
