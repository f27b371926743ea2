// Package pgm models discrete probabilistic graphical models as FAQ-SS
// queries over the sum-product semiring (ℝ≥0, +, ×) — the paper's second
// headline application (Section 1): computing a variable or factor
// marginal is the FAQ with F = {v} or F = e, and the partition function
// is the fully-bound query.
package pgm

import (
	"fmt"
	"math/rand"

	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
)

var sp = semiring.SumProduct{}

// Model is a factor graph: hyperedge i of H is the scope of potential
// Factors[i]. Potentials are strictly positive on listed tuples; the
// listing representation omits zeros exactly as the paper's R_e does.
type Model struct {
	H       *hypergraph.Hypergraph
	Factors []*relation.Relation[float64]
	DomSize int
}

func (m *Model) query(free []int) *faq.Query[float64] {
	return &faq.Query[float64]{
		S:       sp,
		H:       m.H,
		Factors: m.Factors,
		Free:    free,
		DomSize: m.DomSize,
	}
}

// MarginalQuery returns the FAQ computing the (unnormalized) marginal of
// the given free variables.
func (m *Model) MarginalQuery(free []int) *faq.Query[float64] { return m.query(free) }

// Partition computes the partition function Z (all variables bound).
//
//faqlint:allow deadexport(item 12: the PGM partition function, checked by its own tests until it gets a paper-table row)
func (m *Model) Partition() (float64, error) {
	res, err := faq.Solve(m.query(nil))
	if err != nil {
		return 0, err
	}
	return relation.ScalarValue(sp, res)
}

// VariableMarginal computes the unnormalized marginal P̃(x_v).
//
//faqlint:allow deadexport(item 12: the PGM variable marginal (F = {v}), checked by its own tests until it gets a paper-table row)
func (m *Model) VariableMarginal(v int) (*relation.Relation[float64], error) {
	if v < 0 || v >= m.H.NumVertices() {
		return nil, fmt.Errorf("pgm: variable %d out of range", v)
	}
	return faq.Solve(m.query([]int{v}))
}

// FactorMarginal computes the unnormalized marginal over factor e's
// scope — the F = e case the paper highlights.
//
//faqlint:allow deadexport(item 12: the PGM factor marginal (F = e), checked by its own tests until it gets a paper-table row)
func (m *Model) FactorMarginal(e int) (*relation.Relation[float64], error) {
	if e < 0 || e >= m.H.NumEdges() {
		return nil, fmt.Errorf("pgm: factor %d out of range", e)
	}
	return faq.Solve(m.query(m.H.Edge(e)))
}

// randomPotential fills a dense positive potential on a scope.
func randomPotential(schema []int, dom int, r *rand.Rand) *relation.Relation[float64] {
	b := relation.NewBuilder[float64](sp, schema)
	tuple := make([]int, len(schema))
	var fill func(i int)
	fill = func(i int) {
		if i == len(schema) {
			b.Add(tuple, 0.25+r.Float64())
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

// NewChain builds a pairwise chain model x₀—x₁—...—x_{n-1} with random
// positive potentials.
func NewChain(n, dom int, r *rand.Rand) *Model {
	h := hypergraph.PathGraph(n)
	m := &Model{H: h, DomSize: dom}
	for i := 0; i < h.NumEdges(); i++ {
		m.Factors = append(m.Factors, randomPotential(h.Edge(i), dom, r))
	}
	return m
}

// NewTree builds a random pairwise tree model.
func NewTree(n, dom int, r *rand.Rand) *Model {
	h := hypergraph.New(n)
	for v := 1; v < n; v++ {
		h.AddEdge(r.Intn(v), v)
	}
	m := &Model{H: h, DomSize: dom}
	for i := 0; i < h.NumEdges(); i++ {
		m.Factors = append(m.Factors, randomPotential(h.Edge(i), dom, r))
	}
	return m
}

// NewGrid builds a rows×cols pairwise grid model — a cyclic hypergraph
// exercising the core phase of the distributed protocol.
func NewGrid(rows, cols, dom int, r *rand.Rand) *Model {
	h := hypergraph.New(rows * cols)
	at := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				h.AddEdge(at(i, j), at(i, j+1))
			}
			if i+1 < rows {
				h.AddEdge(at(i, j), at(i+1, j))
			}
		}
	}
	m := &Model{H: h, DomSize: dom}
	for i := 0; i < h.NumEdges(); i++ {
		m.Factors = append(m.Factors, randomPotential(h.Edge(i), dom, r))
	}
	return m
}
