package qcache

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/obs"
)

func answer(rows ...graph.NodeID) *core.Answer {
	a := core.NewAnswer([]int{0})
	for _, v := range rows {
		a.Add([]graph.NodeID{v})
	}
	a.Canonicalize()
	return a
}

func key(ds, q string, gen uint64) Key {
	return Key{Dataset: ds, Generation: gen, Query: q, Index: "threehop"}
}

// datasetMetric scrapes one per-dataset family (gtpq_cache_dataset_*)
// the way /metrics exports it.
func datasetMetric(t *testing.T, c *Cache, family, dataset string) int64 {
	t.Helper()
	reg := obs.NewRegistry()
	c.Register(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	prefix := fmt.Sprintf("%s{dataset=%q} ", family, dataset)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return int64(f)
		}
	}
	t.Fatalf("no %s sample in exposition:\n%s", prefix, b.String())
	return 0
}

func TestGetPutHitMiss(t *testing.T) {
	c := New(1 << 20)
	k := key("d", "q1", 1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	want := answer(1, 2, 3)
	c.Put(k, want)
	got, ok := c.Get(k)
	if !ok || !got.Equal(want) {
		t.Fatalf("get = %v, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	hits := datasetMetric(t, c, "gtpq_cache_dataset_hits_total", "d")
	misses := datasetMetric(t, c, "gtpq_cache_dataset_misses_total", "d")
	bytes := datasetMetric(t, c, "gtpq_cache_dataset_bytes", "d")
	if hits != 1 || misses != 1 || bytes != st.Bytes {
		t.Fatalf("dataset metrics: hits %d misses %d bytes %d (global %+v)", hits, misses, bytes, st)
	}
}

// TestGenerationKeysPast checks the invalidation design: a bumped
// generation never sees the old generation's entries.
func TestGenerationKeysPast(t *testing.T) {
	c := New(1 << 20)
	c.Put(key("d", "q", 1), answer(1))
	if _, ok := c.Get(key("d", "q", 2)); ok {
		t.Fatal("new generation hit an old entry")
	}
	if _, ok := c.Get(key("d", "q", 1)); !ok {
		t.Fatal("old generation entry lost")
	}
	// Index kind is part of the key too.
	if _, ok := c.Get(Key{Dataset: "d", Generation: 1, Query: "q", Index: "tc"}); ok {
		t.Fatal("different index kind hit the threehop entry")
	}
}

// TestByteBoundEviction fills one logical key-space until the byte
// budget forces LRU eviction, then checks the accounting balances.
func TestByteBoundEviction(t *testing.T) {
	// Budget small enough that a few hundred ~200-byte entries overflow
	// every shard.
	c := New(16 * 1024)
	var answers []*core.Answer
	for i := 0; i < 400; i++ {
		a := answer(graph.NodeID(i), graph.NodeID(i+1), graph.NodeID(i+2))
		answers = append(answers, a)
		c.Put(key("d", fmt.Sprintf("q%03d", i), 1), a)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions at %d bytes cached (budget %d)", st.Bytes, st.MaxBytes)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("cached bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
	if st.Entries <= 0 {
		t.Fatalf("entries = %d", st.Entries)
	}
	// Recent keys should still be present; the oldest evicted.
	hits := 0
	for i := 0; i < 400; i++ {
		if got, ok := c.Get(key("d", fmt.Sprintf("q%03d", i), 1)); ok {
			hits++
			if !got.Equal(answers[i]) {
				t.Fatalf("entry %d corrupted", i)
			}
		}
	}
	if int64(hits) != st.Entries {
		t.Fatalf("%d hits vs %d entries", hits, st.Entries)
	}
	if b := datasetMetric(t, c, "gtpq_cache_dataset_bytes", "d"); b != st.Bytes {
		t.Fatalf("per-dataset bytes %d diverged from global %+v", b, st)
	}
}

// TestOversizedAnswerNotCached: an answer bigger than a shard budget is
// served but never stored.
func TestOversizedAnswerNotCached(t *testing.T) {
	c := New(numShards * 512)
	big := core.NewAnswer([]int{0})
	for i := 0; i < 1000; i++ {
		big.Add([]graph.NodeID{graph.NodeID(i)})
	}
	big.Canonicalize()
	k := key("d", "huge", 1)
	c.Put(k, big)
	if _, ok := c.Get(k); ok {
		t.Fatal("oversized answer was cached")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after oversized put = %+v", st)
	}
}

func TestDoComputesOnceThenHits(t *testing.T) {
	c := New(1 << 20)
	var evals atomic.Int64
	compute := func() (*core.Answer, error) {
		evals.Add(1)
		return answer(7), nil
	}
	k := key("d", "q", 1)
	for i := 0; i < 5; i++ {
		ans, src, err := c.Do(context.Background(), k, compute)
		if err != nil || ans.Len() != 1 {
			t.Fatalf("do %d: %v %v", i, ans, err)
		}
		want := Hit
		if i == 0 {
			want = Computed
		}
		if src != want {
			t.Fatalf("do %d: source = %v, want %v", i, src, want)
		}
	}
	if evals.Load() != 1 {
		t.Fatalf("evals = %d", evals.Load())
	}
	if st := c.Stats(); st.Hits != 4 || st.Misses != 1 || st.Evals != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDoSingleflight releases a herd of goroutines at one cold key and
// checks exactly one computation ran while everyone got the answer.
func TestDoSingleflight(t *testing.T) {
	c := New(1 << 20)
	var evals atomic.Int64
	gate := make(chan struct{})
	compute := func() (*core.Answer, error) {
		evals.Add(1)
		<-gate // hold the flight open so followers must join it
		return answer(42), nil
	}
	const herd = 32
	var wg sync.WaitGroup
	errs := make(chan error, herd)
	started := make(chan struct{}, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			ans, _, err := c.Do(context.Background(), key("d", "q", 1), compute)
			if err != nil {
				errs <- err
				return
			}
			if ans.Len() != 1 || ans.Tuples[0][0] != 42 {
				errs <- errors.New("wrong answer")
			}
		}()
	}
	for i := 0; i < herd; i++ {
		<-started
	}
	time.Sleep(10 * time.Millisecond) // let the herd pile onto the flight
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if evals.Load() != 1 {
		t.Fatalf("evals = %d, want 1", evals.Load())
	}
	st := c.Stats()
	if st.Hits+st.Misses != herd {
		t.Fatalf("hits %d + misses %d != %d requests", st.Hits, st.Misses, herd)
	}
	if st.Evals != 1 {
		t.Fatalf("stats evals = %d", st.Evals)
	}
}

// TestDoErrorNeverCached is the regression test for the deadline rule:
// a failed computation (e.g. a ctx-cancelled evaluation) must not
// populate the cache, and the next caller must compute fresh.
func TestDoErrorNeverCached(t *testing.T) {
	c := New(1 << 20)
	k := key("d", "q", 1)
	boom := errors.New("deadline exceeded mid-eval")
	if _, _, err := c.Do(context.Background(), k, func() (*core.Answer, error) {
		return answer(1), boom // partial answer alongside the error
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("failed computation was cached")
	}
	ans, src, err := c.Do(context.Background(), k, func() (*core.Answer, error) {
		return answer(2), nil
	})
	if err != nil || src != Computed || ans.Tuples[0][0] != 2 {
		t.Fatalf("retry: %v %v %v", ans, src, err)
	}
}

// TestDoWaiterRetriesAfterLeaderFailure: a follower waiting on a leader
// whose evaluation fails must retry (and may become the new leader),
// not inherit the leader's error.
func TestDoWaiterRetriesAfterLeaderFailure(t *testing.T) {
	c := New(1 << 20)
	k := key("d", "q", 1)
	leaderIn := make(chan struct{})
	gate := make(chan struct{})
	boom := errors.New("leader deadline")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(context.Background(), k, func() (*core.Answer, error) {
			close(leaderIn)
			<-gate
			return nil, boom
		})
	}()
	<-leaderIn

	wg.Add(1)
	var followerAns *core.Answer
	var followerErr error
	go func() {
		defer wg.Done()
		followerAns, _, followerErr = c.Do(context.Background(), k, func() (*core.Answer, error) {
			return answer(9), nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // follower joins the flight
	close(gate)
	wg.Wait()
	if followerErr != nil || followerAns == nil || followerAns.Tuples[0][0] != 9 {
		t.Fatalf("follower: %v %v", followerAns, followerErr)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("follower's successful retry was not cached")
	}
}

// TestDoPanicReleasesFlight: a panicking computation must propagate to
// its caller but unregister the flight, so waiters retry instead of
// blocking on the key forever.
func TestDoPanicReleasesFlight(t *testing.T) {
	c := New(1 << 20)
	k := key("d", "q", 1)
	leaderIn := make(chan struct{})
	gate := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	panicked := make(chan interface{}, 1)
	go func() {
		defer wg.Done()
		defer func() { panicked <- recover() }()
		c.Do(context.Background(), k, func() (*core.Answer, error) {
			close(leaderIn)
			<-gate
			panic("index corrupted")
		})
	}()
	<-leaderIn

	// Follower joins the doomed flight, then must retry and succeed.
	wg.Add(1)
	var followerAns *core.Answer
	var followerErr error
	go func() {
		defer wg.Done()
		followerAns, _, followerErr = c.Do(context.Background(), k, func() (*core.Answer, error) {
			return answer(5), nil
		})
	}()
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if p := <-panicked; p != "index corrupted" {
		t.Fatalf("leader panic = %v", p)
	}
	if followerErr != nil || followerAns == nil || followerAns.Tuples[0][0] != 5 {
		t.Fatalf("follower after panic: %v %v", followerAns, followerErr)
	}
	// The key is not wedged: a fresh caller hits the follower's entry.
	if _, src, err := c.Do(context.Background(), k, func() (*core.Answer, error) {
		t.Error("must not recompute")
		return nil, nil
	}); err != nil || src != Hit {
		t.Fatalf("post-panic Do: %v %v", src, err)
	}
}

// TestDoWaiterHonorsOwnContext: a follower with an expired context
// stops waiting with its own error; the leader is unaffected.
func TestDoWaiterHonorsOwnContext(t *testing.T) {
	c := New(1 << 20)
	k := key("d", "q", 1)
	leaderIn := make(chan struct{})
	gate := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ans, src, err := c.Do(context.Background(), k, func() (*core.Answer, error) {
			close(leaderIn)
			<-gate
			return answer(3), nil
		})
		if err != nil || src != Computed || ans.Len() != 1 {
			t.Errorf("leader: %v %v %v", ans, src, err)
		}
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, k, func() (*core.Answer, error) {
		t.Error("cancelled follower must not compute")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v", err)
	}
	close(gate)
	wg.Wait()
}

// TestDoHammer races hits, misses, evictions, and flights across many
// goroutines and datasets; run under -race in CI. The accounting
// invariant: every Do accounts exactly one hit or one miss.
func TestDoHammer(t *testing.T) {
	c := New(32 * 1024) // small: forces eviction churn alongside hits
	const goroutines = 16
	const perG = 300
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := key(fmt.Sprintf("d%d", i%3), fmt.Sprintf("q%02d", (gi+i)%40), 1)
				ans, _, err := c.Do(context.Background(), k, func() (*core.Answer, error) {
					return answer(graph.NodeID(i % 7)), nil
				})
				if err != nil || ans == nil {
					t.Errorf("do: %v %v", ans, err)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != goroutines*perG {
		t.Fatalf("hits %d + misses %d != %d", st.Hits, st.Misses, goroutines*perG)
	}
	if st.Evals > st.Misses {
		t.Fatalf("evals %d > misses %d", st.Evals, st.Misses)
	}
	if st.Bytes > st.MaxBytes || st.Bytes < 0 {
		t.Fatalf("bytes %d outside [0, %d]", st.Bytes, st.MaxBytes)
	}
	var dsBytes, dsLookups int64
	for i := 0; i < 3; i++ {
		ds := fmt.Sprintf("d%d", i)
		dsBytes += datasetMetric(t, c, "gtpq_cache_dataset_bytes", ds)
		dsLookups += datasetMetric(t, c, "gtpq_cache_dataset_hits_total", ds) +
			datasetMetric(t, c, "gtpq_cache_dataset_misses_total", ds)
	}
	if dsBytes != st.Bytes || dsLookups != st.Hits+st.Misses {
		t.Fatalf("per-dataset totals (%d bytes, %d lookups) != global (%d, %d)",
			dsBytes, dsLookups, st.Bytes, st.Hits+st.Misses)
	}
}

// BenchmarkCacheHit measures the hit path — the latency a cached
// repeated query costs the server before any evaluation work.
func BenchmarkCacheHit(b *testing.B) {
	c := New(1 << 20)
	k := key("d", "node x label=a output\n", 1)
	c.Put(k, answer(1, 2, 3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(k); !ok {
			b.Fatal("miss")
		}
	}
}
