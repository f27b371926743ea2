package faqs

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hypergraph"
)

// Aggregate selects the per-variable aggregate operator of a bound
// variable in a general FAQ (Section 5, eq. 4 of the paper). Bound
// variables without an override use the semiring's ⊕ (the FAQ-SS case).
type Aggregate string

const (
	// AggProduct aggregates a bound variable with the semiring's ⊗
	// (valid over every semiring).
	AggProduct Aggregate = "product"
	// AggMax aggregates with max. Valid over SumProduct, whose
	// identities 0 and 1 the MaxTimes semiring shares — the paper's
	// compatibility condition for semiring aggregates.
	AggMax Aggregate = "max"
)

// QueryBuilder assembles an FAQ fluently: factors, free variables,
// per-variable aggregates, and the domain size. Errors accumulate and
// surface from Build — the builder never panics on malformed input.
type QueryBuilder struct {
	sem      Semiring
	factors  []*Relation
	free     []string
	aggs     map[string]Aggregate
	aggOrder []string
	dom      int
	err      error
}

// NewQuery starts a query over the given registry semiring.
func NewQuery(s Semiring) *QueryBuilder {
	b := &QueryBuilder{sem: s}
	if s.impl == nil {
		b.err = fmt.Errorf("faqs: unknown semiring %q (use a registry semiring: %v)", s.name, SemiringNames())
	}
	return b
}

// Factor appends one input relation; its schema becomes a hyperedge of
// the query hypergraph.
func (b *QueryBuilder) Factor(r *Relation) *QueryBuilder {
	if b.err != nil {
		return b
	}
	if r == nil {
		b.err = fmt.Errorf("faqs: nil factor %d", len(b.factors))
		return b
	}
	b.factors = append(b.factors, r)
	return b
}

// Free declares free (output) variables by attribute name; all other
// variables are bound and aggregated out.
func (b *QueryBuilder) Free(names ...string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	b.free = append(b.free, names...)
	return b
}

// Aggregate overrides the aggregate operator of one bound variable.
func (b *QueryBuilder) Aggregate(name string, agg Aggregate) *QueryBuilder {
	if b.err != nil {
		return b
	}
	if b.aggs == nil {
		b.aggs = make(map[string]Aggregate)
	}
	if prev, ok := b.aggs[name]; ok && prev != agg {
		b.err = fmt.Errorf("faqs: conflicting aggregates %q and %q for variable %q", prev, agg, name)
		return b
	}
	if _, ok := b.aggs[name]; !ok {
		b.aggOrder = append(b.aggOrder, name)
	}
	b.aggs[name] = agg
	return b
}

// Domain sets the domain size D: every tuple value must lie in [0, D).
func (b *QueryBuilder) Domain(n int) *QueryBuilder {
	if b.err != nil {
		return b
	}
	b.dom = n
	return b
}

// builtSpec is the semiring-independent half of a built query, handed to
// the registry's typed constructors.
type builtSpec struct {
	h       *hypergraph.Hypergraph
	edgeIDs [][]int // per factor: variable ids in schema column order
	factors []*Relation
	free    []int
	dom     int
	aggs    map[int]Aggregate // variable id -> aggregate override
}

// Build validates the pieces and assembles the typed query. All
// structural errors (arity mismatches, out-of-domain values, free
// variables that appear nowhere, invalid aggregates) are returned, never
// panicked.
func (b *QueryBuilder) Build() (*Query, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.factors) == 0 {
		return nil, fmt.Errorf("faqs: query has no factors")
	}
	if b.dom < 1 {
		return nil, fmt.Errorf("faqs: domain size must be positive (Domain(%d))", b.dom)
	}
	// Tuples are stored as int32 columns; a larger domain would let
	// buildTyped's range check pass values that wrap modulo 2^32 into the
	// valid domain and silently change answers.
	if b.dom > math.MaxInt32 {
		return nil, fmt.Errorf("faqs: domain size %d exceeds the int32 tuple range (max %d)", b.dom, math.MaxInt32)
	}
	hb := hypergraph.NewBuilder()
	for _, r := range b.factors {
		hb.Edge(r.schema.attrs...)
	}
	h := hb.Build()

	spec := &builtSpec{h: h, factors: b.factors, dom: b.dom}
	for e, r := range b.factors {
		ids := make([]int, len(r.schema.attrs))
		for i, a := range r.schema.attrs {
			ids[i] = hb.VertexID(a)
		}
		if len(ids) != len(h.Edge(e)) {
			// Schemas reject duplicate attributes, so the edge's deduped
			// vertex set always matches; guard against regressions.
			return nil, fmt.Errorf("faqs: factor %d schema/edge mismatch", e)
		}
		spec.edgeIDs = append(spec.edgeIDs, ids)
	}

	for _, name := range b.free {
		id := hb.VertexID(name)
		if id < 0 {
			return nil, fmt.Errorf("faqs: free variable %q appears in no factor", name)
		}
		spec.free = append(spec.free, id)
	}
	sort.Ints(spec.free)
	spec.free = dedupSortedInts(spec.free)

	freeNames := make(map[string]bool, len(b.free))
	for _, name := range b.free {
		freeNames[name] = true
	}
	for _, name := range b.aggOrder {
		agg := b.aggs[name]
		id := hb.VertexID(name)
		if id < 0 {
			return nil, fmt.Errorf("faqs: aggregate for variable %q, which appears in no factor", name)
		}
		if freeNames[name] {
			return nil, fmt.Errorf("faqs: aggregate specified for free variable %q", name)
		}
		if !b.sem.impl.supportsAgg(agg) {
			return nil, fmt.Errorf("faqs: aggregate %q is not valid over semiring %s", agg, b.sem.name)
		}
		if spec.aggs == nil {
			spec.aggs = make(map[int]Aggregate)
		}
		spec.aggs[id] = agg
	}

	typed, n, err := b.sem.impl.buildTyped(spec)
	if err != nil {
		return nil, err
	}
	return &Query{sem: b.sem, h: h, free: spec.free, dom: b.dom, n: n, typed: typed}, nil
}

// Query is a built, validated FAQ bound to a registry semiring, ready
// for Engine.Solve / Engine.Explain / Engine.SolveOnNetwork.
type Query struct {
	sem   Semiring
	h     *hypergraph.Hypergraph
	free  []int
	dom   int
	n     int
	typed any // *faq.Query[T] for the semiring's value type
}

// Semiring returns the query's semiring.
func (q *Query) Semiring() Semiring { return q.sem }

// NumFactors returns the number of input relations.
func (q *Query) NumFactors() int { return q.h.NumEdges() }

// FreeVars returns the free variables' attribute names (sorted by
// internal variable id — first-appearance order across factors).
func (q *Query) FreeVars() []string {
	out := make([]string, len(q.free))
	for i, v := range q.free {
		out[i] = q.h.VertexName(v)
	}
	return out
}

// Domain returns the domain size D.
func (q *Query) Domain() int { return q.dom }

// MaxFactorSize returns N = max_e |R_e|, the paper's size parameter.
func (q *Query) MaxFactorSize() int { return q.n }

// String renders the query's hypergraph for diagnostics.
func (q *Query) String() string {
	return fmt.Sprintf("Query[%s]{%s, free=%v, N=%d, D=%d}", q.sem.name, q.h, q.FreeVars(), q.n, q.dom)
}

func dedupSortedInts(a []int) []int {
	out := a[:0]
	for i, x := range a {
		if i == 0 || x != a[i-1] {
			out = append(out, x)
		}
	}
	return out
}
