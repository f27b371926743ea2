// Package workload generates the inputs of the paper's experiments:
// relations (uniform, skew-free matchings, full), query families (stars,
// paths, trees, d-degenerate graphs, cliques), and player assignments.
// All generators take an explicit random source and are deterministic
// given its seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/protocol"
	"repro/internal/relation"
	"repro/internal/semiring"
)

var sb = semiring.Bool{}
var sp = semiring.SumProduct{}

// RandomRelation returns a Boolean relation with (up to) n distinct
// uniform tuples over [0, dom)^|schema|.
func RandomRelation(schema []int, n, dom int, r *rand.Rand) *relation.Relation[bool] {
	b := relation.NewBuilder[bool](sb, schema)
	tuple := make([]int, len(schema))
	for i := 0; i < n; i++ {
		for j := range tuple {
			tuple[j] = r.Intn(dom)
		}
		b.AddOne(tuple...)
	}
	return b.Build()
}

// RandomAnnotated returns a sum-product relation with (up to) n distinct
// tuples carrying positive weights.
func RandomAnnotated(schema []int, n, dom int, r *rand.Rand) *relation.Relation[float64] {
	b := relation.NewBuilder[float64](sp, schema)
	tuple := make([]int, len(schema))
	for i := 0; i < n; i++ {
		for j := range tuple {
			tuple[j] = r.Intn(dom)
		}
		b.Add(tuple, 0.25+r.Float64())
	}
	return b.Build()
}

// MatchingRelation returns a skew-free relation in the sense of the MPC
// comparisons (Appendix A.1.2): each domain value appears at most once
// per column. Requires n ≤ dom.
//
//faqlint:allow deadexport(item 12: Appendix A.1.2's skew-free instance, for the MPC comparison row)
func MatchingRelation(schema []int, n, dom int, r *rand.Rand) (*relation.Relation[bool], error) {
	if n > dom {
		return nil, fmt.Errorf("workload: matching needs n ≤ dom, got %d > %d", n, dom)
	}
	perms := make([][]int, len(schema))
	for j := range perms {
		perms[j] = r.Perm(dom)[:n]
	}
	b := relation.NewBuilder[bool](sb, schema)
	tuple := make([]int, len(schema))
	for i := 0; i < n; i++ {
		for j := range tuple {
			tuple[j] = perms[j][i]
		}
		b.AddOne(tuple...)
	}
	return b.Build(), nil
}

// FullRelation returns the complete relation over the schema (dom^arity
// tuples) — the padding relation of the lower-bound embeddings.
//
//faqlint:allow deadexport(item 12: the lower-bound embeddings' padding relation, for their paper-table rows)
func FullRelation(schema []int, dom int) *relation.Relation[bool] {
	b := relation.NewBuilder[bool](sb, schema)
	tuple := make([]int, len(schema))
	var fill func(i int)
	fill = func(i int) {
		if i == len(schema) {
			b.AddOne(tuple...)
			return
		}
		for v := 0; v < dom; v++ {
			tuple[i] = v
			fill(i + 1)
		}
	}
	fill(0)
	return b.Build()
}

// SharedValueRelations builds one relation of n tuples per edge of h,
// each holding the tuple with the planted value in every column, so the
// BCQ over h is true by construction.
func SharedValueRelations(h *hypergraph.Hypergraph, n, dom, planted int, r *rand.Rand) []*relation.Relation[bool] {
	out := make([]*relation.Relation[bool], h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		schema := h.Edge(e)
		b := relation.NewBuilder[bool](sb, schema)
		tuple := make([]int, len(schema))
		for i := 0; i < n-1; i++ {
			for j := range tuple {
				tuple[j] = r.Intn(dom)
			}
			b.AddOne(tuple...)
		}
		for j := range tuple {
			tuple[j] = planted
		}
		b.AddOne(tuple...)
		out[e] = b.Build()
	}
	return out
}

// BCQ assembles a Boolean query from a hypergraph and per-edge random
// relations of n tuples over [0, dom).
func BCQ(h *hypergraph.Hypergraph, n, dom int, r *rand.Rand) *faq.Query[bool] {
	factors := make([]*relation.Relation[bool], h.NumEdges())
	for e := range factors {
		factors[e] = RandomRelation(h.Edge(e), n, dom, r)
	}
	return faq.NewBCQ(h, factors, dom)
}

// SumProductFAQ assembles an FAQ-SS over (ℝ≥0, +, ×) with the given free
// variables.
func SumProductFAQ(h *hypergraph.Hypergraph, free []int, n, dom int, r *rand.Rand) *faq.Query[float64] {
	factors := make([]*relation.Relation[float64], h.NumEdges())
	for e := range factors {
		factors[e] = RandomAnnotated(h.Edge(e), n, dom, r)
	}
	return &faq.Query[float64]{S: sp, H: h, Factors: factors, Free: free, DomSize: dom}
}

// DDegenerateGraph returns a random simple graph of degeneracy at most
// d: vertex v attaches to min(v, 1+rand(d)) random earlier vertices.
func DDegenerateGraph(nv, d int, r *rand.Rand) *hypergraph.Hypergraph {
	h := hypergraph.New(nv)
	seen := map[[2]int]bool{}
	for v := 1; v < nv; v++ {
		k := 1 + r.Intn(d)
		if k > v {
			k = v
		}
		for _, u := range r.Perm(v)[:k] {
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if !seen[[2]int{a, b}] {
				seen[[2]int{a, b}] = true
				h.AddEdge(a, b)
			}
		}
	}
	return h
}

// DDegenerateHypergraph returns a random arity-≤r hypergraph whose
// degeneracy stays O(d): each new vertex joins a hyperedge with up to
// r−1 earlier vertices, d times.
func DDegenerateHypergraph(nv, d, r int, rng *rand.Rand) *hypergraph.Hypergraph {
	h := hypergraph.New(nv)
	for v := 1; v < nv; v++ {
		edges := 1 + rng.Intn(d)
		for e := 0; e < edges; e++ {
			k := 1 + rng.Intn(r-1)
			if k > v {
				k = v
			}
			verts := append(rng.Perm(v)[:k], v)
			h.AddEdge(verts...)
		}
	}
	return h
}

// RoundRobinAssignment spreads factors across the given players in
// order.
func RoundRobinAssignment(numEdges int, players []int) protocol.Assignment {
	a := make(protocol.Assignment, numEdges)
	for i := range a {
		a[i] = players[i%len(players)]
	}
	return a
}
