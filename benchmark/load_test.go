package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gtpq/internal/core"
	"gtpq/internal/graph"
)

// The open loop keeps its schedule when an operation stalls: later
// operations are sent late, the lateness is reported, and their latency
// counts from when they were due (no coordinated omission).
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		interval = 5 * time.Millisecond
		stall    = 40 * time.Millisecond
		ops      = 12
	)
	start := time.Now()
	timings := runOpenLoop(start, interval, start.Add(ops*interval), func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(timings) != ops {
		t.Fatalf("%d operations ran, want %d: a stall must not drop scheduled operations", len(timings), ops)
	}
	for i, op := range timings {
		if want := time.Duration(i) * interval; op.due != want {
			t.Errorf("op %d due at %v, want %v: the schedule shifted", i, op.due, want)
		}
		if op.sent < op.due {
			t.Errorf("op %d sent at %v, before it was due at %v", i, op.sent, op.due)
		}
	}
	// Operation 1 was due at 5ms but could only leave once operation 0's
	// 40ms stall ended: it ran late by about 35ms, and although it took
	// no time itself, its latency includes that wait.
	late := timings[1]
	if late.lateness() < stall-interval-2*time.Millisecond {
		t.Errorf("op 1 lateness = %v, want about %v", late.lateness(), stall-interval)
	}
	if late.latency() < late.lateness() {
		t.Errorf("op 1 latency %v is below its lateness %v: not timed from its due time", late.latency(), late.lateness())
	}
	if own := late.done - late.sent; own > 10*time.Millisecond {
		t.Errorf("op 1 itself took %v; the test's premise (an instant operation) broke", own)
	}
	// The backlog drains: the last operation is on time again.
	if last := timings[ops-1]; last.lateness() > 10*time.Millisecond {
		t.Errorf("last op still %v late", last.lateness())
	}
}

func TestOpenLoopStopsAtDeadline(t *testing.T) {
	start := time.Now()
	timings := runOpenLoop(start, time.Millisecond, start.Add(5*time.Millisecond), func(int) error { return nil })
	if len(timings) != 5 {
		t.Errorf("%d operations, want 5 (due at 0..4ms, the one due at the deadline is not sent)", len(timings))
	}
}

// Every delivery mode must hash to the reference answer's hash, and any
// change of order, grouping or content must not.
func TestRowHashAgreesAcrossDeliveryModes(t *testing.T) {
	ans := core.NewAnswer([]int{0, 1})
	for _, row := range [][]graph.NodeID{{1, 20}, {1, 21}, {3, 4}, {50000, 7}} {
		ans.Add(row)
	}
	want := hashAnswer(ans)
	if want.rows != 4 {
		t.Fatalf("reference has %d rows, want 4", want.rows)
	}

	body := `{"dataset":"d","columns":["x","y"],"rows":[[1,20],[1,21],[3,4],[50000,7]],"cached":true,"stats":{"input":9,"results":4}}` + "\n"
	rh := newRowHash()
	meta, err := parseJSONBody([]byte(body), &rh)
	if err != nil {
		t.Fatal(err)
	}
	if rh != want {
		t.Errorf("JSON body hashed to %+v, reference %+v", rh, want)
	}
	if !meta.Cached || meta.Stats == nil || meta.Stats.Input != 9 {
		t.Errorf("meta = %+v, want cached with stats.input 9", meta)
	}

	// Two pages of the same answer, hashed one after the other.
	rh = newRowHash()
	for _, page := range []string{
		`{"dataset":"d","rows":[[1,20],[1,21]],"next_cursor":"abc","cached":false}`,
		`{"dataset":"d","rows":[[3,4],[50000,7]],"cached":false}`,
	} {
		if meta, err = parseJSONBody([]byte(page), &rh); err != nil {
			t.Fatal(err)
		}
	}
	if rh != want || meta.NextCursor != "" {
		t.Errorf("re-assembled pages hashed to %+v (cursor %q), reference %+v", rh, meta.NextCursor, want)
	}

	rh = newRowHash()
	meta = respMeta{}
	for _, line := range strings.Split(`{"dataset":"d","columns":["x","y"],"cached":false}
{"row":[1,20]}
{"row":[1,21]}
{"row":[3,4]}
{"row":[50000,7]}
{"done":true,"rows":4,"stats":{"input":9}}`, "\n") {
		if _, err := parseNDJSONLine([]byte(line), &rh, &meta); err != nil {
			t.Fatal(err)
		}
	}
	if rh != want || !meta.Done {
		t.Errorf("NDJSON hashed to %+v done=%v, reference %+v", rh, meta.Done, want)
	}

	for name, wrong := range map[string]string{
		"reordered rows": `[[1,21],[1,20],[3,4],[50000,7]]`,
		"merged rows":    `[[1,20,1,21],[3,4],[50000,7]]`,
		"missing row":    `[[1,20],[1,21],[3,4]]`,
		"changed value":  `[[1,20],[1,21],[3,5],[50000,7]]`,
		"empty answer":   `[]`,
	} {
		rh := newRowHash()
		if _, err := parseJSONBody([]byte(fmt.Sprintf(`{"rows":%s}`, wrong)), &rh); err != nil {
			t.Fatal(err)
		}
		if rh == want {
			t.Errorf("%s hashed to the reference hash", name)
		}
	}
}

func TestParseJSONBodyWithoutRows(t *testing.T) {
	rh := newRowHash()
	meta, err := parseJSONBody([]byte(`{"error":"server overloaded"}`), &rh)
	if err != nil || meta.Error != "server overloaded" || rh.rows != 0 {
		t.Errorf("meta = %+v err = %v rows = %d", meta, err, rh.rows)
	}
	if _, err := parseJSONBody([]byte(`{"rows":[[1,2]`), &rh); err == nil {
		t.Error("a truncated rows array was accepted")
	}
}
