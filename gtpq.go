// Package gtpq is a library for generalized tree pattern queries
// (GTPQs) over directed, attributed graphs, reproducing "Adding Logical
// Operators to Tree Pattern Queries on Graph-Structured Data" (Zeng,
// Jiang, Zhuge; arXiv:1109.4288).
//
// A GTPQ is a tree pattern whose nodes carry attribute predicates and
// whose structure may be constrained with full propositional logic
// (conjunction, disjunction, negation) over child branches; a subset of
// the nodes is returned. Queries are evaluated with the paper's GTEA
// algorithm: two-round pruning over a reachability index with merged
// contours, then result enumeration from a compact maximal matching
// graph. The reachability index is pluggable — the paper's 3-hop index
// is the default, a bitset transitive closure is registered as "tc",
// and IndexKinds lists everything available; select one with
// NewEngineWithOptions.
//
// An Engine is immutable once built and safe for concurrent Eval calls
// from many goroutines; per-call cost counters come back in each
// Result.
//
// Basic use:
//
//	g := gtpq.NewGraph()
//	a := g.AddNode("a", nil)
//	b := g.AddNode("b", nil)
//	g.AddEdge(a, b)
//
//	q, _ := gtpq.ParseQuery(`
//	    node x label=a output
//	    pnode y label=b parent=x edge=ad
//	    pred x: y`)
//
//	eng := gtpq.NewEngine(g)
//	res, _ := eng.Eval(q)
//
// The package also exposes the paper's static analyses: Satisfiable,
// Contained, EquivalentQueries, and Minimize.
package gtpq

import (
	"context"
	"fmt"
	"io"

	"gtpq/internal/core"
	"gtpq/internal/graph"
	"gtpq/internal/gtea"
	"gtpq/internal/logic"
	"gtpq/internal/qlang"
	"gtpq/internal/reach"
	"gtpq/internal/snapshot"
)

// NodeID identifies a node of a Graph.
type NodeID = graph.NodeID

// Graph is a directed data graph with labeled, attributed nodes.
type Graph struct {
	g *graph.Graph
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{g: graph.New(0, 0)} }

// AddNode adds a node with a primary label and optional attributes
// (string or float64 values) and returns its id.
func (g *Graph) AddNode(label string, attrs map[string]interface{}) NodeID {
	var a graph.Attrs
	if len(attrs) > 0 {
		a = make(graph.Attrs, len(attrs))
		for k, v := range attrs {
			switch x := v.(type) {
			case string:
				a[k] = graph.StrV(x)
			case float64:
				a[k] = graph.NumV(x)
			case int:
				a[k] = graph.NumV(float64(x))
			default:
				panic(fmt.Sprintf("gtpq: unsupported attribute type %T", v))
			}
		}
	}
	return g.g.AddNode(label, a)
}

// AddEdge adds a directed edge u -> v.
func (g *Graph) AddEdge(u, v NodeID) { g.g.AddEdge(u, v) }

// AddRefEdge adds a directed ID/IDREF (cross) edge u -> v; tree-based
// algorithms treat it as a reference rather than document structure.
func (g *Graph) AddRefEdge(u, v NodeID) { g.g.AddCrossEdge(u, v) }

// N returns the node count.
func (g *Graph) N() int { return g.g.N() }

// M returns the edge count.
func (g *Graph) M() int { return g.g.M() }

// Label returns the primary label of v.
func (g *Graph) Label(v NodeID) string { return g.g.Label(v) }

// Internal exposes the underlying graph to sibling packages in this
// module (examples, benchmarks).
func (g *Graph) Internal() *graph.Graph { return g.g }

// WrapGraph wraps an internal graph (used by generators).
func WrapGraph(ig *graph.Graph) *Graph { return &Graph{g: ig} }

// Query is a generalized tree pattern query.
type Query struct {
	q *core.Query
}

// ParseQuery parses the qlang DSL (see cmd/gtpq for the grammar).
func ParseQuery(src string) (*Query, error) {
	q, err := qlang.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Query{q: q}, nil
}

// Format renders the query back into the DSL; the text is canonical
// (stable across semantically equal spellings) and round-trips through
// ParseQuery.
func (q *Query) Format() string { return qlang.Format(q.q) }

// String renders the query tree for diagnostics.
func (q *Query) String() string { return q.q.String() }

// Size returns the number of query nodes.
func (q *Query) Size() int { return q.q.Size() }

// Internal exposes the underlying query.
func (q *Query) Internal() *core.Query { return q.q }

// WrapQuery wraps an internal query.
func WrapQuery(iq *core.Query) *Query { return &Query{q: iq} }

// Builder constructs queries programmatically.
type Builder struct {
	q     *core.Query
	names map[string]int
}

// NewBuilder starts a query with the given root (always a backbone
// node). Pass attribute atoms with Where after adding nodes.
func NewBuilder(rootName, rootLabel string) *Builder {
	b := &Builder{q: core.NewQuery(), names: map[string]int{}}
	b.names[rootName] = b.q.AddRoot(rootName, core.Label(rootLabel))
	return b
}

// edgeType converts the exported edge name.
func edgeType(pc bool) core.EdgeType {
	if pc {
		return core.PC
	}
	return core.AD
}

// Child adds a backbone node under parent; pc selects a parent-child
// edge (false: ancestor-descendant).
func (b *Builder) Child(name, label, parent string, pc bool) *Builder {
	b.names[name] = b.q.AddNode(name, core.Backbone, b.mustName(parent), edgeType(pc), core.Label(label))
	return b
}

// Filter adds a predicate node under parent.
func (b *Builder) Filter(name, label, parent string, pc bool) *Builder {
	b.names[name] = b.q.AddNode(name, core.Predicate, b.mustName(parent), edgeType(pc), core.Label(label))
	return b
}

// Ref marks the edge from name's parent as an ID/IDREF reference.
func (b *Builder) Ref(name string) *Builder {
	b.q.SetViaRef(b.mustName(name))
	return b
}

// Output marks nodes as output.
func (b *Builder) Output(names ...string) *Builder {
	for _, n := range names {
		b.q.SetOutput(b.mustName(n))
	}
	return b
}

// Predicate attaches a structural predicate (formula over child names,
// e.g. "bidder | !seller") to node name.
func (b *Builder) Predicate(name, formula string) *Builder {
	f, err := logic.Parse(formula, func(child string) (int, error) {
		id, ok := b.names[child]
		if !ok {
			return 0, fmt.Errorf("gtpq: unknown node %q in predicate", child)
		}
		return id, nil
	})
	if err != nil {
		panic(err)
	}
	b.q.SetStruct(b.mustName(name), f)
	return b
}

// Where adds an attribute comparison to node name; op is one of
// = != < <= > >=.
func (b *Builder) Where(name, attr, op string, value interface{}) *Builder {
	var o core.Op
	switch op {
	case "=":
		o = core.EQ
	case "!=":
		o = core.NE
	case "<":
		o = core.LT
	case "<=":
		o = core.LE
	case ">":
		o = core.GT
	case ">=":
		o = core.GE
	default:
		panic(fmt.Sprintf("gtpq: unknown operator %q", op))
	}
	var v graph.Value
	switch x := value.(type) {
	case string:
		v = graph.StrV(x)
	case float64:
		v = graph.NumV(x)
	case int:
		v = graph.NumV(float64(x))
	default:
		panic(fmt.Sprintf("gtpq: unsupported value type %T", value))
	}
	u := b.mustName(name)
	b.q.Nodes[u].Attr = append(b.q.Nodes[u].Attr, core.Atom{Attr: attr, Op: o, Val: v})
	return b
}

// Build validates and returns the query.
func (b *Builder) Build() (*Query, error) {
	if len(b.q.Outputs()) == 0 {
		b.q.SetOutput(b.q.Root)
	}
	if err := b.q.Validate(); err != nil {
		return nil, err
	}
	return &Query{q: b.q}, nil
}

func (b *Builder) mustName(name string) int {
	id, ok := b.names[name]
	if !ok {
		panic(fmt.Sprintf("gtpq: unknown node %q", name))
	}
	return id
}

// Result is a query answer: one row per match projection, with columns
// named after the output query nodes.
type Result struct {
	// Columns holds the output node names in tuple order.
	Columns []string
	// Rows holds the distinct result tuples.
	Rows [][]NodeID
	// Stats reports the work performed.
	Stats EvalStats
}

// EvalStats mirrors the paper's cost metrics.
type EvalStats struct {
	// Input counts the vertices scanned into the evaluation.
	Input int64
	// IndexLookups counts reachability-index probes.
	IndexLookups int64
	// Intermediate counts intermediate result tuples materialized.
	Intermediate int64
}

// EngineOptions select the engine's reachability backend.
type EngineOptions struct {
	// Index names the reachability index kind; IndexKinds lists the
	// backends. Empty selects the default (the paper's 3-hop index).
	Index string
}

// Engine evaluates queries over one graph; building it constructs the
// selected reachability index. An Engine is immutable and safe for
// concurrent Eval calls.
type Engine struct {
	e *gtea.Engine
}

// NewEngine builds a GTEA engine for g with the default 3-hop index.
func NewEngine(g *Graph) *Engine {
	return &Engine{e: gtea.New(g.g)}
}

// NewEngineWithOptions builds a GTEA engine for g with the named index
// backend; it fails on unknown kinds or backends that refuse the graph
// (e.g. "tc" beyond its size limit).
func NewEngineWithOptions(g *Graph, opt EngineOptions) (*Engine, error) {
	e, err := gtea.NewWithOptions(g.g, gtea.Options{Index: opt.Index})
	if err != nil {
		return nil, err
	}
	return &Engine{e: e}, nil
}

// IndexKinds lists the reachability backends, sorted.
func IndexKinds() []string { return reach.Kinds() }

// IndexKind reports which backend this engine evaluates over.
func (e *Engine) IndexKind() string { return e.e.H.Kind() }

// Graph returns the data graph this engine evaluates over.
func (e *Engine) Graph() *Graph { return &Graph{g: e.e.G} }

// SaveSnapshot writes the engine's graph together with its built
// reachability index to w (see internal/snapshot for the format).
// LoadSnapshot restores the engine without re-running index
// construction, so a server cold-starts in milliseconds.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	return snapshot.Save(w, e.e.G, e.e.H)
}

// LoadSnapshot reads a snapshot written by SaveSnapshot and returns a
// ready engine; the reachability index is revived, not rebuilt.
func LoadSnapshot(r io.Reader) (*Engine, error) {
	g, h, err := snapshot.Load(r)
	if err != nil {
		return nil, err
	}
	return &Engine{e: gtea.NewWithIndex(g, h, gtea.Options{})}, nil
}

// Eval evaluates q. Safe for concurrent use; the returned Stats are
// specific to this call. A query with no output nodes returns its root
// (the same default Builder.Build and ParseQuery apply).
func (e *Engine) Eval(q *Query) (*Result, error) {
	return e.EvalCtx(context.Background(), q)
}

// EvalCtx evaluates q under ctx: when the context is cancelled or its
// deadline passes mid-evaluation, the work is aborted at the next
// pruning or enumeration boundary and ctx's error returned. Safe for
// concurrent use.
func (e *Engine) EvalCtx(ctx context.Context, q *Query) (*Result, error) {
	iq := q.q
	if err := iq.Validate(); err != nil {
		return nil, err
	}
	if len(iq.Outputs()) == 0 {
		// Same root default as Builder.Build and ParseQuery; clone so a
		// shared *Query is never mutated under a concurrent evaluation.
		iq = iq.Clone()
		iq.SetOutput(iq.Root)
	}
	ans, st, err := e.e.EvalStatsCtx(ctx, iq)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(ans.Out))
	for i, u := range ans.Out {
		cols[i] = iq.Nodes[u].Name
	}
	return &Result{
		Columns: cols,
		Rows:    ans.Tuples,
		Stats: EvalStats{
			Input:        st.Input,
			IndexLookups: st.Index,
			Intermediate: st.Intermediate,
		},
	}, nil
}

// GroupedResult nests the matches below one output node per combination
// of the remaining outputs (the §4.3 group operator).
type GroupedResult struct {
	// KeyColumns / MemberColumns name the outer and nested outputs.
	KeyColumns    []string
	MemberColumns []string
	Groups        []GroupRow
}

// GroupRow is one group: the key images and the distinct nested tuples.
type GroupRow struct {
	Key     []NodeID
	Members [][]NodeID
}

// EvalGrouped evaluates q, grouping results by the named output node:
// matches of the output nodes below it are nested per group.
func (e *Engine) EvalGrouped(q *Query, groupNode string) (*GroupedResult, error) {
	if err := q.q.Validate(); err != nil {
		return nil, err
	}
	id, ok := q.q.NameToID()[groupNode]
	if !ok {
		return nil, fmt.Errorf("gtpq: unknown node %q", groupNode)
	}
	if !q.q.Nodes[id].Output {
		return nil, fmt.Errorf("gtpq: %q is not an output node", groupNode)
	}
	ga := e.e.EvalGrouped(q.q, id)
	out := &GroupedResult{}
	for _, u := range ga.KeyOut {
		out.KeyColumns = append(out.KeyColumns, q.q.Nodes[u].Name)
	}
	for _, u := range ga.MemberOut {
		out.MemberColumns = append(out.MemberColumns, q.q.Nodes[u].Name)
	}
	for _, g := range ga.Groups {
		out.Groups = append(out.Groups, GroupRow{Key: g.Key, Members: g.Members})
	}
	return out, nil
}

// Satisfiable reports whether some data graph yields a non-empty answer
// (Theorem 1; NP-complete with negation, linear for union-conjunctive
// queries).
func Satisfiable(q *Query) bool { return core.Satisfiable(q.q) }

// Contained reports Q1 ⊑ Q2: every answer of q1 on any graph is an
// answer of q2 (Theorem 3).
func Contained(q1, q2 *Query) bool { return core.Contained(q1.q, q2.q) }

// EquivalentQueries reports Q1 ≡ Q2.
func EquivalentQueries(q1, q2 *Query) bool { return core.Equivalent(q1.q, q2.q) }

// Minimize returns a minimum equivalent query (Algorithm 1; unique up
// to isomorphism by Proposition 5).
func Minimize(q *Query) *Query { return &Query{q: core.Minimize(q.q)} }
