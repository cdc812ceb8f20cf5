package repl_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gtpq/internal/repl"
)

// stubBackend is a minimal gtpq-serve stand-in: controllable /readyz,
// a canned /query answer, and request counting.
type stubBackend struct {
	srv     *httptest.Server
	ready   atomic.Bool
	fail    atomic.Bool // 500 every proxied request
	queries atomic.Int64
	updates atomic.Int64
}

func newStubBackend(t *testing.T, answer string) *stubBackend {
	t.Helper()
	b := &stubBackend{}
	b.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !b.ready.Load() {
			http.Error(w, "lagging", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok")
	})
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, _ *http.Request) {
		b.updates.Add(1)
		io.WriteString(w, `{"ok":true}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		if b.fail.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		b.queries.Add(1)
		io.WriteString(w, answer)
	})
	b.srv = httptest.NewServer(mux)
	t.Cleanup(b.srv.Close)
	return b
}

// newRouter spins a started router over the given backends.
func newRouter(t *testing.T, cfg repl.RouterConfig) *httptest.Server {
	t.Helper()
	cfg.HealthInterval = 10 * time.Millisecond
	rt, err := repl.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Stop()
	})
	return ts
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, string(body)
}

// Reads spread across ready replicas; a backend that starts failing
// its probes drops out of rotation and traffic fails over.
func TestRouterSpreadsAndFailsOver(t *testing.T) {
	b1 := newStubBackend(t, "one")
	b2 := newStubBackend(t, "two")
	rt := newRouter(t, repl.RouterConfig{
		Primary:  b1.srv.URL,
		Replicas: []string{b1.srv.URL, b2.srv.URL},
	})

	for i := 0; i < 6; i++ {
		resp, _ := get(t, rt.URL+"/query")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if b1.queries.Load() == 0 || b2.queries.Load() == 0 {
		t.Fatalf("reads not spread: b1=%d b2=%d", b1.queries.Load(), b2.queries.Load())
	}

	// b1 goes unready; after FailAfter probes only b2 serves.
	b1.ready.Store(false)
	time.Sleep(100 * time.Millisecond)
	before := b1.queries.Load()
	for i := 0; i < 4; i++ {
		resp, body := get(t, rt.URL+"/query")
		if resp.StatusCode != http.StatusOK || body != "two" {
			t.Fatalf("status %d body %q, want b2's answer", resp.StatusCode, body)
		}
		if got := resp.Header.Get(repl.HeaderBackend); got != b2.srv.URL {
			t.Fatalf("%s = %q, want %q", repl.HeaderBackend, got, b2.srv.URL)
		}
	}
	if b1.queries.Load() != before {
		t.Fatal("unready backend kept receiving reads")
	}
}

// A mid-request 5xx retries on the next backend within the budget.
func TestRouterRetriesFailedRead(t *testing.T) {
	b1 := newStubBackend(t, "one")
	b2 := newStubBackend(t, "two")
	b1.fail.Store(true)
	rt := newRouter(t, repl.RouterConfig{
		Primary:     b1.srv.URL,
		Replicas:    []string{b1.srv.URL, b2.srv.URL},
		RetryBudget: 1,
	})
	// Whatever the rotation starts on, every read must land on b2.
	for i := 0; i < 4; i++ {
		resp, body := get(t, rt.URL+"/query")
		if resp.StatusCode != http.StatusOK || body != "two" {
			t.Fatalf("status %d body %q", resp.StatusCode, body)
		}
	}
}

// With nothing in sync: StaleOK serves from a lagging backend with
// the stale marker; without it the router sheds loudly.
func TestRouterStaleDegradation(t *testing.T) {
	b := newStubBackend(t, "stale-answer")
	b.ready.Store(false)

	strict := newRouter(t, repl.RouterConfig{Primary: b.srv.URL})
	resp, _ := get(t, strict.URL+"/query")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("strict router: status %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, strict.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router /readyz: status %d, want 503 with no backend ready", resp.StatusCode)
	}

	lax := newRouter(t, repl.RouterConfig{Primary: b.srv.URL, StaleOK: true})
	resp, body := get(t, lax.URL+"/query")
	if resp.StatusCode != http.StatusOK || body != "stale-answer" {
		t.Fatalf("stale router: status %d body %q", resp.StatusCode, body)
	}
	if resp.Header.Get(repl.HeaderStale) != "1" {
		t.Fatalf("stale response missing %s header", repl.HeaderStale)
	}
}

// Writes go to the primary exactly once — never load-balanced, never
// retried (a timed-out update may have applied).
func TestRouterWritesToPrimaryOnly(t *testing.T) {
	primary := newStubBackend(t, "p")
	replicaB := newStubBackend(t, "r")
	rt := newRouter(t, repl.RouterConfig{
		Primary:  primary.srv.URL,
		Replicas: []string{replicaB.srv.URL},
	})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(rt.URL+"/update", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	if p, r := primary.updates.Load(), replicaB.updates.Load(); p != 3 || r != 0 {
		t.Fatalf("updates: primary=%d replica=%d, want 3/0", p, r)
	}
}

// End to end: router over a real primary + real replica; killing the
// replica's backend process (closing its listener) fails reads over
// to the primary, and the router's metrics expose the transition.
func TestRouterOverRealFleet(t *testing.T) {
	primary, _ := newPrimary(t, 0)
	rep := newReplica(t, &repl.HTTPClient{BaseURL: primary.URL},
		repl.TailerConfig{Datasets: []string{"d"}})
	postUpdate(t, primary.URL, 8, 3)
	rep.waitSync(t)

	rt := newRouter(t, repl.RouterConfig{
		Primary:  primary.URL,
		Replicas: []string{primary.URL, rep.srv.URL},
	})
	// Both backends serve; answers agree with a direct primary query.
	want := canonicalRows(t, primary.URL, equivQueries[0])
	if got := canonicalRows(t, rt.URL, equivQueries[0]); got != want {
		t.Fatalf("routed answer diverges: %s vs %s", got, want)
	}

	// Kill the replica; reads must keep flowing via the primary.
	rep.srv.CloseClientConnections()
	rep.srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := get(t, rt.URL+"/backends")
		if resp.StatusCode != http.StatusOK {
			t.Fatal("backends endpoint failed")
		}
		m := fetchMetrics(t, rt.URL)
		if strings.Contains(m, `gtpq_router_backend_up{backend="`+rep.srv.URL+`"} 0`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never marked the killed replica down:\n%s", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		if got := canonicalRows(t, rt.URL, equivQueries[0]); got != want {
			t.Fatalf("post-failover answer diverges: %s vs %s", got, want)
		}
	}
}
