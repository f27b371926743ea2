package faq

import (
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// TestAggregateOutOrder pins eq. (4)'s elimination order: bound
// variables leave innermost (largest id) first, skipping free ones.
func TestAggregateOutOrder(t *testing.T) {
	h := hypergraph.PathGraph(5)
	q := &Query[bool]{S: sb, H: h, Free: []int{1, 3}, DomSize: 2,
		Factors: emptyFactors(h)}
	free := map[int]bool{1: true, 3: true}
	var order []int
	b := relation.NewBuilder[bool](sb, []int{0, 1, 2, 3, 4})
	b.AddOne(0, 0, 0, 0, 0)
	out, err := AggregateOut(q, b.Build(), func(v int) bool {
		if !free[v] {
			order = append(order, v)
		}
		return free[v]
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 2, 0} // descending, skipping free vars
	if len(order) != len(want) {
		t.Fatalf("elimination order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("elimination order = %v, want %v", order, want)
		}
	}
	if got := out.Schema(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("remaining schema = %v, want [1 3]", got)
	}
}

func emptyFactors(h *hypergraph.Hypergraph) []*relation.Relation[bool] {
	fs := make([]*relation.Relation[bool], h.NumEdges())
	for i := range fs {
		fs[i] = relation.Empty[bool](h.Edge(i))
	}
	return fs
}

func TestOpDefaultsToSemiringAdd(t *testing.T) {
	h := hypergraph.PathGraph(3)
	q := &Query[bool]{S: sb, H: h, DomSize: 2, Factors: emptyFactors(h)}
	op := q.Op(1)
	if op.IsProduct() {
		t.Error("default op must be the semiring ⊕")
	}
	if op.Identity() != false {
		t.Error("Boolean ⊕ identity must be false")
	}
	if !q.IsSS() {
		t.Error("query with no VarOps is an FAQ-SS")
	}
	q.VarOps = map[int]semiring.Op[bool]{1: semiring.MulOf[bool](sb)}
	if q.IsSS() {
		t.Error("query with a VarOps entry is not FAQ-SS")
	}
	if !q.Op(1).IsProduct() {
		t.Error("override not honored")
	}
}

func TestNaturalJoinOnHypergraph(t *testing.T) {
	// Arity-3 natural join: H2's four relations joined over ABCDEF.
	h := hypergraph.ExampleH2()
	r := rand.New(rand.NewSource(91))
	dom := 3
	factors := make([]*relation.Relation[bool], h.NumEdges())
	for i := range factors {
		schema := h.Edge(i)
		b := relation.NewBuilder[bool](sb, schema)
		for k := 0; k < 10; k++ {
			tuple := make([]int, len(schema))
			for j := range tuple {
				tuple[j] = r.Intn(dom)
			}
			b.AddOne(tuple...)
		}
		factors[i] = b.Build()
	}
	q := NewNaturalJoin(h, factors, dom)
	got, err := BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	want := factors[0]
	for _, f := range factors[1:] {
		want = relation.Join(sb, want, f)
	}
	if !relation.Equal(sb, got, want) {
		t.Error("natural join query != iterated join")
	}
	// The GHD solver requires F ⊆ root bag, which fails for the full
	// attribute set of H2 (no bag holds all six variables): it must
	// reject rather than silently truncate.
	if _, err := Solve(q); err == nil {
		t.Error("expected free-variable restriction error for full join on H2")
	}
}

func TestSemijoinQueryShape(t *testing.T) {
	// F = e (one edge's attributes) over Booleans is the semijoin of
	// Definition 3.5 folded through the whole query.
	h := hypergraph.PathGraph(3)
	b0 := relation.NewBuilder[bool](sb, h.Edge(0))
	b0.AddOne(0, 0)
	b0.AddOne(1, 1)
	b0.AddOne(2, 0)
	b1 := relation.NewBuilder[bool](sb, h.Edge(1))
	b1.AddOne(0, 1)
	factors := []*relation.Relation[bool]{b0.Build(), b1.Build()}
	q := &Query[bool]{S: sb, H: h, Factors: factors, Free: []int{0, 1}, DomSize: 3}
	got, err := Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.Semijoin(sb, factors[0], factors[1])
	if !relation.Equal(sb, got, want) {
		t.Errorf("F=e query != semijoin: got %v want %v", got, want)
	}
}

func TestMixedAggregatesSeparableVars(t *testing.T) {
	// Sum over x2, max over x0, on a path x0—x1—x2 with free x1: the
	// operators act on different branches of the GHD (separable in the
	// sense of Theorem G.1's second condition), so GHD pass and brute
	// force must agree.
	h := hypergraph.PathGraph(3)
	spr := semiring.SumProduct{}
	r := rand.New(rand.NewSource(92))
	dom := 3
	factors := make([]*relation.Relation[float64], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder[float64](spr, h.Edge(i))
		for a := 0; a < dom; a++ {
			for c := 0; c < dom; c++ {
				b.Add([]int{a, c}, float64(1+r.Intn(8)))
			}
		}
		factors[i] = b.Build()
	}
	q := &Query[float64]{
		S: spr, H: h, Factors: factors, Free: []int{1}, DomSize: dom,
		VarOps: map[int]semiring.Op[float64]{
			0: semiring.AddOf[float64](semiring.MaxTimes{}),
		},
	}
	want, err := BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(spr, got, want) {
		t.Errorf("mixed aggregates: GHD pass != brute force\n got %v\nwant %v", got, want)
	}
}

func TestSolveGHDRejectsInvalidQuery(t *testing.T) {
	h := hypergraph.PathGraph(3)
	q := &Query[bool]{S: sb, H: h, Factors: emptyFactors(h), DomSize: 0}
	if _, err := Solve(q); err == nil {
		t.Error("expected validation error to propagate")
	}
}

func TestBCQValueHelper(t *testing.T) {
	h := hypergraph.New(1)
	h.AddEdge(0)
	b := relation.NewBuilder[bool](sb, h.Edge(0))
	b.AddOne(0)
	q := NewBCQ(h, []*relation.Relation[bool]{b.Build()}, 2)
	res, err := Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	v, err := BCQValue(q, res)
	if err != nil || !v {
		t.Errorf("BCQValue = %v, %v; want true", v, err)
	}
}
