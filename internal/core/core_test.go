package core

import (
	"math/rand"
	"testing"

	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/protocol"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/topology"
)

var sb = semiring.Bool{}

func starSetup(g *topology.Graph, n int, output int) *protocol.Setup[bool] {
	h := hypergraph.ExampleH1()
	factors := make([]*relation.Relation[bool], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder[bool](sb, h.Edge(i))
		for x := 0; x < n; x++ {
			b.AddOne(x, 0)
		}
		factors[i] = b.Build()
	}
	q := faq.NewBCQ(h, factors, n)
	return &protocol.Setup[bool]{Q: q, G: g, Assign: protocol.Assignment{0, 1, 2, 3}, Output: output}
}

// setupBounds evaluates the closed-form bounds of a protocol instance.
func setupBounds(s *protocol.Setup[bool]) (*Bounds, error) {
	return ComputeBounds(s.Q.H, s.Q.MaxFactorSize(), s.G, s.Players())
}

func TestEngineRunStarLine(t *testing.T) {
	n := 64
	ans, rep, err := protocol.Run(starSetup(topology.Line(4), n, 1))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := relation.ScalarValue(sb, ans)
	if !v {
		t.Error("BCQ = 0, want 1")
	}
	if rep.Rounds > n+8 {
		t.Errorf("rounds = %d, want ≈ N+2", rep.Rounds)
	}
}

func TestBoundsStarOnLine(t *testing.T) {
	// Table 1 row 1 instance: constant-degeneracy query on a line.
	n := 64
	b, err := setupBounds(starSetup(topology.Line(4), n, 1))
	if err != nil {
		t.Fatal(err)
	}
	if b.Y != 1 {
		t.Errorf("y = %d, want 1", b.Y)
	}
	if b.N2 != 0 {
		t.Errorf("n2 = %d, want 0 for acyclic", b.N2)
	}
	if b.Degeneracy != 1 || b.Arity != 2 {
		t.Errorf("d, r = %d, %d, want 1, 2", b.Degeneracy, b.Arity)
	}
	if b.MinCut != 1 {
		t.Errorf("MinCut = %d, want 1 on a line", b.MinCut)
	}
	if b.ST != 1 {
		t.Errorf("ST = %d, want 1 on a line", b.ST)
	}
	// UB ≈ y·(N·r + Δ); LB = (y+n2)·N/MinCut = N.
	if b.Lower != float64(n) {
		t.Errorf("Lower = %v, want %d", b.Lower, n)
	}
	if b.Upper < n || b.Upper > 3*n+10 {
		t.Errorf("Upper = %d, want within [N, 3N+10]", b.Upper)
	}
	if g := b.Gap(); g <= 0 {
		t.Errorf("gap = %v, want positive", g)
	}
}

func TestBoundsCliqueVsLine(t *testing.T) {
	// The same query on the clique has MinCut 3 and a 2-tree packing:
	// both bounds drop relative to the line.
	n := 128
	line, _ := setupBounds(starSetup(topology.Line(4), n, 1))
	clique, err := setupBounds(starSetup(topology.Clique(4), n, 1))
	if err != nil {
		t.Fatal(err)
	}
	if clique.MinCut != 3 {
		t.Errorf("clique MinCut = %d, want 3", clique.MinCut)
	}
	if clique.ST < 2 {
		t.Errorf("clique ST = %d, want ≥ 2", clique.ST)
	}
	if clique.Upper >= line.Upper {
		t.Errorf("clique UB (%d) should beat line UB (%d)", clique.Upper, line.Upper)
	}
	if clique.Lower >= line.Lower {
		t.Errorf("clique LB (%v) should be below line LB (%v)", clique.Lower, line.Lower)
	}
}

func TestBoundsCyclicQuery(t *testing.T) {
	// A triangle query has y contributions from the core only.
	h := hypergraph.CycleGraph(3)
	n := 16
	factors := make([]*relation.Relation[bool], 3)
	for i := range factors {
		b := relation.NewBuilder[bool](sb, h.Edge(i))
		for x := 0; x < n; x++ {
			b.AddOne(x, (x+1)%n)
		}
		factors[i] = b.Build()
	}
	q := faq.NewBCQ(h, factors, n)
	s := &protocol.Setup[bool]{Q: q, G: topology.Ring(3), Assign: protocol.Assignment{0, 1, 2}, Output: 0}
	b, err := setupBounds(s)
	if err != nil {
		t.Fatal(err)
	}
	if b.N2 != 3 {
		t.Errorf("n2(triangle) = %d, want 3", b.N2)
	}
	ans, rep, err := protocol.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := faq.BruteForce(q)
	if !relation.Equal(sb, ans, want) {
		t.Error("cyclic answer mismatch")
	}
	if rep.Rounds > 4*b.Upper+16 {
		t.Errorf("measured rounds %d far above UB %d", rep.Rounds, b.Upper)
	}
}

// TestMeasuredRoundsBracketedByBounds is the headline sanity check of
// Table 1: over random constant-degeneracy instances, the measured
// rounds of the main protocol sit between the (constant-scaled) lower
// and upper bound formulas.
func TestMeasuredRoundsBracketedByBounds(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 12; trial++ {
		nv := 3 + r.Intn(4)
		h := hypergraph.New(nv)
		for v := 1; v < nv; v++ {
			h.AddEdge(r.Intn(v), v)
		}
		n := 32
		factors := make([]*relation.Relation[bool], h.NumEdges())
		for i := range factors {
			b := relation.NewBuilder[bool](sb, h.Edge(i))
			for x := 0; x < n; x++ {
				b.AddOne(x, r.Intn(n))
			}
			factors[i] = b.Build()
		}
		q := faq.NewBCQ(h, factors, n)
		g := topology.Line(h.NumEdges())
		assign := make(protocol.Assignment, h.NumEdges())
		for i := range assign {
			assign[i] = i
		}
		s := &protocol.Setup[bool]{Q: q, G: g, Assign: assign, Output: 0}
		_, rep, err := protocol.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := setupBounds(s)
		if err != nil {
			t.Fatal(err)
		}
		// Constants: the schedule may spend a small constant per star
		// above the formula, and the formula itself hides constants.
		if rep.Rounds > 6*b.Upper+40 {
			t.Errorf("trial %d: measured %d rounds >> UB %d", trial, rep.Rounds, b.Upper)
		}
	}
}

func TestRunRejectsInvalidSetup(t *testing.T) {
	h := hypergraph.PathGraph(3)
	factors := []*relation.Relation[bool]{
		relation.Empty[bool](h.Edge(0)),
		relation.Empty[bool](h.Edge(1)),
	}
	q := faq.NewBCQ(h, factors, 2)
	s := &protocol.Setup[bool]{Q: q, G: topology.Line(2), Assign: protocol.Assignment{0}, Output: 0}
	if _, _, err := protocol.Run(s); err == nil {
		t.Error("expected error for short assignment")
	}
}

func TestComputeBoundsSinglePlayer(t *testing.T) {
	h := hypergraph.ExampleH1()
	b, err := ComputeBounds(h, 16, topology.Line(2), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if b.Upper != 0 || b.MinCut != 0 {
		t.Errorf("single player bounds should be zero: %+v", b)
	}
	if _, err := ComputeBounds(h, 16, topology.Line(2), nil); err == nil {
		t.Error("expected error for empty K")
	}
}
