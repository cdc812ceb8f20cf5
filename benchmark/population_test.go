package main

import (
	"math/rand"
	"reflect"
	"testing"
)

func draw(s sequence, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// The same seed must give the same request sequence, a client's sequence
// must not depend on the other clients, and another seed must differ.
func TestSeedFixesTheRequestSequence(t *testing.T) {
	modes := []delivery{deliverNDJSON, deliverPaged}
	for _, mk := range []struct {
		name string
		new  func(seed int64) sequence
	}{
		{"cycle", func(seed int64) sequence { return newCycleSeq(seed, 40, modes) }},
		{"zipf", func(seed int64) sequence { return newZipfSeq(seed, 40, 1.1, modes) }},
	} {
		a := draw(mk.new(clientSeed(17, 0)), 500)
		b := draw(mk.new(clientSeed(17, 0)), 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two sequences", mk.name)
		}
		if reflect.DeepEqual(a, draw(mk.new(clientSeed(17, 1)), 500)) {
			t.Errorf("%s: two clients of one run send the same sequence", mk.name)
		}
		if reflect.DeepEqual(a, draw(mk.new(clientSeed(18, 0)), 500)) {
			t.Errorf("%s: seeds 17 and 18 gave the same sequence", mk.name)
		}
		for i, r := range a {
			if r.qi < 0 || r.qi >= 40 {
				t.Fatalf("%s: request %d names query %d of 40", mk.name, i, r.qi)
			}
			if r.mode != modes[i%2] {
				t.Fatalf("%s: request %d delivered as %v, want modes to alternate", mk.name, i, r.mode)
			}
		}
	}
}

// A cycle sends every query equally often; Zipf favours the low ranks.
func TestSequenceShapes(t *testing.T) {
	const n = 10
	counts := make([]int, n)
	for _, r := range draw(newCycleSeq(5, n, []delivery{deliverJSON}), 7*n) {
		counts[r.qi]++
	}
	for qi, c := range counts {
		if c != 7 {
			t.Errorf("cycle sent query %d %d times in 7 cycles", qi, c)
		}
	}
	counts = make([]int, n)
	for _, r := range draw(newZipfSeq(5, n, 1.1, []delivery{deliverJSON}), 20000) {
		counts[r.qi]++
	}
	if !(counts[0] > 2*counts[3] && counts[3] > counts[9] && counts[9] > 0) {
		t.Errorf("zipf counts %v are not skewed towards the first ranks", counts)
	}
}

// The same seed must also give the same query texts, in the same order.
func TestSeedFixesThePopulation(t *testing.T) {
	texts := func(seed int64) []string {
		qs, err := xmarkQueries(rand.New(rand.NewSource(seed)), 4, 6, 6)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(qs))
		for i, q := range qs {
			out[i] = q.class + "\n" + q.text
		}
		return out
	}
	a := texts(17)
	if !reflect.DeepEqual(a, texts(17)) {
		t.Error("one seed gave two populations")
	}
	if reflect.DeepEqual(a, texts(18)) {
		t.Error("seeds 17 and 18 gave the same label instantiations")
	}
	// Classes interleave, so any prefix has the population's mix.
	if got := []string{a[0][:2], a[1][:2], a[2][:2], a[3][:2]}; !reflect.DeepEqual(got, []string{"Q1", "Q2", "Q3", "Q4"}) {
		t.Errorf("population starts %v, want Q1 Q2 Q3 Q4", got)
	}
}
