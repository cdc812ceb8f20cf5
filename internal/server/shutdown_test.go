package server

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"gtpq/internal/catalog"
	"gtpq/internal/gtea"
)

// TestGracefulShutdownDrains is the server e2e for the gtpq-serve
// shutdown path: with a slow evaluation in flight, Shutdown + Drain
// must let it finish (no dropped answer), Drain must not return while
// work is admitted, and the catalog's delta log must flush so a
// follow-up process replays every acknowledged update.
func TestGracefulShutdownDrains(t *testing.T) {
	// Real listener + http.Server, mirroring cmd/gtpq-serve (httptest's
	// Close is not the Shutdown path under test).
	tsURL, s, hs := newShutdownStack(t)

	// Acknowledge one update before shutting down.
	code, _ := postJSON(t, tsURL+"/update", map[string]interface{}{
		"dataset": "small",
		"edges":   []map[string]interface{}{{"from": 0, "to": 4}},
	})
	if code != http.StatusOK {
		t.Fatalf("update: status %d", code)
	}

	// A slow in-flight query: the chain dataset's pair enumeration
	// takes long enough to still be running when shutdown starts.
	type result struct {
		rows int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		code, out := postQuery(t, tsURL, map[string]interface{}{
			"dataset":    "chain",
			"query":      "node x label=a output\nnode y label=a parent=x edge=ad output",
			"timeout_ms": 20000,
		})
		if code != http.StatusOK {
			done <- result{err: &net.AddrError{Err: "query failed", Addr: out["error"].(string)}}
			return
		}
		done <- result{rows: len(out["rows"].([]interface{}))}
	}()

	// Wait until the evaluation is admitted.
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// The gtpq-serve shutdown sequence: stop accepting, drain, flush.
	// (Under -race on two cores the ~1.1M-row answer alone takes ~15s.)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := s.queued.Load(); got != 0 {
		t.Fatalf("drain returned with %d admissions in flight", got)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("in-flight query dropped: %v", r.err)
		}
		if r.rows == 0 {
			t.Fatal("in-flight query returned no rows")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight query did not complete after drain")
	}
	if err := s.cat.Close(); err != nil {
		t.Fatalf("flushing delta logs: %v", err)
	}

	// New connections are refused after shutdown.
	if _, err := http.Get(tsURL + "/healthz"); err == nil {
		t.Fatal("server accepted a connection after Shutdown")
	}

	// The acknowledged update replays in the next process.
	cat2 := reopenCatalog(t, s)
	ds, err := cat2.Acquire("small")
	if err != nil {
		t.Fatalf("replaying after shutdown: %v", err)
	}
	defer ds.Release()
	if ds.DeltaBatches != 1 {
		t.Fatalf("replayed %d batches, want 1", ds.DeltaBatches)
	}
	if !ds.Engine.(*gtea.Engine).G.HasEdge(0, 4) {
		t.Fatal("acknowledged update lost across shutdown")
	}
}

// TestDrainTimesOut pins Drain's failure mode: with work still in
// flight past the deadline it reports the stragglers instead of
// hanging.
func TestDrainTimesOut(t *testing.T) {
	_, s := newTestServer(t, Config{})
	s.queued.Add(1) // simulate a stuck admission
	defer s.queued.Add(-1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain with stuck admission returned nil")
	}
}

// newShutdownStack builds the catalog+server over a real net.Listener.
func newShutdownStack(t *testing.T) (string, *Server, *http.Server) {
	t.Helper()
	// MaxRows keeps the slow part in the evaluation (what drain waits
	// on) rather than in shipping a 1M-row JSON body to the client.
	_, s := newTestServer(t, Config{MaxRows: 1000})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return "http://" + ln.Addr().String(), s, hs
}

// reopenCatalog opens a second catalog over the server's directory,
// simulating the next process.
func reopenCatalog(t *testing.T, s *Server) *catalog.Catalog {
	t.Helper()
	cat2, err := catalog.Open(catalogDir(t, s), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat2.Close() })
	return cat2
}
