// Package faq models Functional Aggregate Queries (FAQs, Section 5 of
// "Topology Dependent Bounds For FAQs") and provides two centralized
// solvers: a brute-force reference used as a correctness oracle, and the
// GHD message-passing algorithm of Theorem G.3 (the Õ(N) upward pass) on
// which the distributed protocols are modeled.
//
// An FAQ is
//
//	φ(x_F) = ⊕^(ℓ+1)_{x_{ℓ+1}} ... ⊕^(n)_{x_n} ⊗_{e∈E} f_e(x_e)
//
// over a commutative semiring; when every bound-variable aggregate is the
// semiring's ⊕ the query is an FAQ-SS (eq. 1.0). BCQ is the special case
// F = ∅ over the Boolean semiring; factor marginals in PGMs are F = e
// over (ℝ≥0, +, ×).
package faq

import (
	"fmt"
	"sort"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// Query is an FAQ instance. Factors[i] is the listing representation of
// the input function on hyperedge i of H; its schema must equal the
// edge's vertex set. Free lists the free variables (sorted); every other
// variable is bound and aggregated by Op(v). DomSize is D = max_v
// |Dom(v)|: tuples take values in [0, DomSize) and product aggregates
// need it to account for unlisted zeros.
type Query[T any] struct {
	S       semiring.Semiring[T]
	H       *hypergraph.Hypergraph
	Factors []*relation.Relation[T]
	Free    []int
	DomSize int
	// VarOps optionally overrides the aggregate of individual bound
	// variables (general FAQ). Variables absent from the map use the
	// semiring's ⊕ (FAQ-SS).
	VarOps map[int]semiring.Op[T]
}

// Op returns the aggregate operator for bound variable v.
func (q *Query[T]) Op(v int) semiring.Op[T] {
	if op, ok := q.VarOps[v]; ok {
		return op
	}
	return semiring.AddOf(q.S)
}

// IsSS reports whether the query is an FAQ-SS (all bound aggregates are
// the semiring ⊕).
func (q *Query[T]) IsSS() bool { return len(q.VarOps) == 0 }

// Validate checks the query is well-formed: ValidateShape, then every
// tuple value within the domain [0, DomSize) — an O(tuples) scan. The
// executing entry points (SolveGHD, BruteForce, delta.Materialize) run
// it, so every executed query is domain-checked once.
func (q *Query[T]) Validate() error {
	if err := q.ValidateShape(); err != nil {
		return err
	}
	for i, f := range q.Factors {
		for t := 0; t < f.Len(); t++ {
			for _, x := range f.Tuple(t) {
				if x < 0 || int(x) >= q.DomSize {
					return fmt.Errorf("faq: factor %d tuple value %d outside domain [0,%d)", i, x, q.DomSize)
				}
			}
		}
	}
	return nil
}

// ValidateShape checks the structural part of Validate, without reading
// any tuple: a non-nil H, a positive domain size, one factor per
// hyperedge with a schema equal to the edge's vertices, free variables
// sorted and present in H, and no aggregate on a free variable. Callers
// that only plan a query (fingerprint, cache, admission) run this and
// leave the domain scan to the entry point that executes it.
func (q *Query[T]) ValidateShape() error {
	if q.H == nil {
		return fmt.Errorf("faq: nil hypergraph")
	}
	if q.DomSize <= 0 {
		return fmt.Errorf("faq: DomSize must be positive, got %d", q.DomSize)
	}
	if len(q.Factors) != q.H.NumEdges() {
		return fmt.Errorf("faq: %d factors for %d hyperedges", len(q.Factors), q.H.NumEdges())
	}
	for i, f := range q.Factors {
		if f == nil {
			return fmt.Errorf("faq: factor %d is nil", i)
		}
		want := q.H.Edge(i)
		got := f.Schema()
		if len(got) != len(want) {
			return fmt.Errorf("faq: factor %d schema %v != edge %v", i, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				return fmt.Errorf("faq: factor %d schema %v != edge %v", i, got, want)
			}
		}
	}
	if !sort.IntsAreSorted(q.Free) {
		return fmt.Errorf("faq: free variables %v not sorted", q.Free)
	}
	covered := make(map[int]bool)
	for _, e := range q.H.Edges() {
		for _, v := range e {
			covered[v] = true
		}
	}
	for _, v := range q.Free {
		if v < 0 || v >= q.H.NumVertices() {
			return fmt.Errorf("faq: free variable %d out of range", v)
		}
		if !covered[v] {
			return fmt.Errorf("faq: free variable %d appears in no hyperedge", v)
		}
	}
	for v := range q.VarOps {
		for _, fv := range q.Free {
			if fv == v {
				return fmt.Errorf("faq: aggregate specified for free variable %d", v)
			}
		}
	}
	return nil
}

// MaxFactorSize returns N = max_e |R_e| (the paper's size parameter).
func (q *Query[T]) MaxFactorSize() int {
	n := 0
	for _, f := range q.Factors {
		if f.Len() > n {
			n = f.Len()
		}
	}
	return n
}

// NewBCQ builds the Boolean Conjunctive Query of the given hypergraph and
// Boolean factors (F = ∅ over the Boolean semiring).
func NewBCQ(h *hypergraph.Hypergraph, factors []*relation.Relation[bool], domSize int) *Query[bool] {
	return &Query[bool]{
		S:       semiring.Bool{},
		H:       h,
		Factors: factors,
		Free:    nil,
		DomSize: domSize,
	}
}

// NewNaturalJoin builds the natural join query (footnote 4: F = V over
// the Boolean semiring).
func NewNaturalJoin(h *hypergraph.Hypergraph, factors []*relation.Relation[bool], domSize int) *Query[bool] {
	free := make([]int, 0, h.NumVertices())
	covered := make(map[int]bool)
	for _, e := range h.Edges() {
		for _, v := range e {
			covered[v] = true
		}
	}
	for v := 0; v < h.NumVertices(); v++ {
		if covered[v] {
			free = append(free, v)
		}
	}
	return &Query[bool]{
		S:       semiring.Bool{},
		H:       h,
		Factors: factors,
		Free:    free,
		DomSize: domSize,
	}
}
