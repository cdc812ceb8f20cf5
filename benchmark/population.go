package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gtpq/internal/core"
	"gtpq/internal/gtea"
	"gtpq/internal/qcache"
	"gtpq/internal/qlang"
)

// delivery is how a client asks for a query's rows.
type delivery int

const (
	deliverJSON   delivery = iota // one materialized JSON response
	deliverNDJSON                 // Accept: application/x-ndjson, rows streamed
	deliverPaged                  // limit + next_cursor until exhausted
)

// pageLimit is the page size of a paged drain.
const pageLimit = 5000

const datasetName = "d"

// query is one distinct query of a workload's population, with the
// reference answer every response to it is checked against.
type query struct {
	class string      // template it was instantiated from (Q1, DIS2, tpq7, ...)
	text  string      // canonical qlang text, as sent on the wire
	q     *core.Query // parsed form, for the direct-call layer probes
	body  []byte      // pre-marshalled POST /query body (no limit, no cursor)

	ref         rowHash // paper-order engine's answer: hash + row count
	answerBytes int64   // qcache.AnswerBytes of the reference answer
}

// wireBody is the POST /query body the harness sends.
type wireBody struct {
	Dataset   string `json:"dataset"`
	Query     string `json:"query"`
	Limit     int    `json:"limit,omitempty"`
	Cursor    string `json:"cursor,omitempty"`
	TimeoutMS int64  `json:"timeout_ms"`
}

// requestTimeoutMS is generous: a timed-out request is a failed
// operation, and the workloads are sized so that none should be.
const requestTimeoutMS = 30000

func marshalBody(text string, limit int, cursor string) []byte {
	b, err := json.Marshal(wireBody{
		Dataset: datasetName, Query: text, Limit: limit, Cursor: cursor,
		TimeoutMS: requestTimeoutMS,
	})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return b
}

// newQuery canonicalizes q through the wire format, so that what the
// harness evaluates directly is exactly what the server parses.
func newQuery(class string, q *core.Query) (*query, error) {
	text := qlang.Format(q)
	parsed, err := qlang.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("%s does not survive qlang.Format: %w", class, err)
	}
	return &query{class: class, text: text, q: parsed, body: marshalBody(text, 0, "")}, nil
}

// dedup drops queries whose canonical text repeats an earlier one.
func dedup(qs []*query) []*query {
	seen := map[string]bool{}
	out := qs[:0]
	for _, q := range qs {
		if !seen[q.text] {
			seen[q.text] = true
			out = append(out, q)
		}
	}
	return out
}

// computeReferences evaluates every query with the paper-order engine
// (gtea.Options.NoPlan on the flat graph) and stores the answer's hash,
// row count and cache footprint. The work is split over two goroutines;
// the engine is safe for concurrent evaluations.
func computeReferences(ref *gtea.Engine, qs []*query) error {
	const workers = 2
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				ans, _, err := ref.EvalStatsCtx(context.Background(), qs[i].q)
				if err != nil {
					errs[w] = fmt.Errorf("reference answer of %s: %w", qs[i].class, err)
					return
				}
				qs[i].ref = hashAnswer(ans)
				qs[i].answerBytes = qcache.AnswerBytes(ans)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// request is one read the load generator issues.
type request struct {
	qi   int // index into the population
	mode delivery
}

// sequence yields a client's request stream. Each client owns one, seeded
// from (run seed, client id), so the stream a client sends does not
// depend on how the clients interleave.
type sequence interface {
	next() request
}

// cycleSeq walks the whole population in a fresh seeded order each
// cycle: every query is sent equally often, so the mix of cheap and
// expensive queries is the same in every run however far the closed loop
// gets.
type cycleSeq struct {
	r     *rand.Rand
	n     int
	modes []delivery
	order []int
	pos   int
	sent  int
}

func newCycleSeq(seed int64, n int, modes []delivery) *cycleSeq {
	return &cycleSeq{r: rand.New(rand.NewSource(seed)), n: n, modes: modes}
}

func (c *cycleSeq) next() request {
	if c.pos == len(c.order) {
		c.order = c.r.Perm(c.n)
		c.pos = 0
	}
	req := request{qi: c.order[c.pos], mode: c.modes[c.sent%len(c.modes)]}
	c.pos++
	c.sent++
	return req
}

// zipfSeq draws queries with probability proportional to 1/rank^s. Ranks
// are assigned by the population's (already seeded) order.
type zipfSeq struct {
	r     *rand.Rand
	cdf   []float64
	modes []delivery
	sent  int
}

func newZipfSeq(seed int64, n int, s float64, modes []delivery) *zipfSeq {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfSeq{r: rand.New(rand.NewSource(seed)), cdf: cdf, modes: modes}
}

func (z *zipfSeq) next() request {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	req := request{qi: lo, mode: z.modes[z.sent%len(z.modes)]}
	z.sent++
	return req
}

// clientSeed derives a client's sequence seed from the run seed.
func clientSeed(seed int64, client int) int64 { return seed*1000003 + int64(client)*7919 + 1 }
