package obs

import "testing"

// queryMetrics returns the metrics work the server's query path does
// once per answered query (observe in internal/server/pipeline.go): the
// latency histogram child resolved by (dataset, index) — resolved per
// query, which is a key join, a mutex and a map lookup — one Observe,
// and three counter adds.
func queryMetrics() func() {
	reg := NewRegistry()
	latency := reg.HistogramVec("gtpq_query_seconds", "", DefLatencyBuckets, "dataset", "index")
	lookups := reg.Counter("gtpq_index_lookups_total", "")
	rows := reg.Counter("gtpq_rows_returned_total", "")
	streamed := reg.Counter("gtpq_rows_streamed_total", "")
	return func() {
		lookups.Add(1234)
		rows.Add(56)
		streamed.Add(56)
		latency.With("xmark", "threehop").Observe(0.0042)
	}
}

// TestQueryMetricsAllocs keeps the per-query cost of metrics from
// growing silently: the bundle allocates the joined child key (16 B)
// and nothing else; the label-values slice and the constructor closure
// stay on the stack.
func TestQueryMetricsAllocs(t *testing.T) {
	const bound = 1 // measured: 1
	if got := testing.AllocsPerRun(1000, queryMetrics()); got > bound {
		t.Errorf("per-query metrics allocate %v times, want <= %d", got, bound)
	}
}

func BenchmarkQueryMetrics(b *testing.B) {
	observe := queryMetrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe()
	}
}
