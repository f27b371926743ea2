package faq

import (
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
)

var sb = semiring.Bool{}
var sp = semiring.SumProduct{}

// starBCQ builds BCQ of the star H1 where relation i holds the pairs
// (a, 1) for a in the given A-sets; the answer is 1 iff the four A-sets
// intersect (Example 2.2).
func starBCQ(t *testing.T, aSets [][]int, dom int) *Query[bool] {
	t.Helper()
	h := hypergraph.ExampleH1()
	factors := make([]*relation.Relation[bool], h.NumEdges())
	for i := 0; i < h.NumEdges(); i++ {
		b := relation.NewBuilder[bool](sb, h.Edge(i))
		for _, a := range aSets[i] {
			b.AddOne(a, 1)
		}
		factors[i] = b.Build()
	}
	q := NewBCQ(h, factors, dom)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	return q
}

func TestStarBCQIntersectionSemantics(t *testing.T) {
	// π_A(R) ∩ π_A(S) ∩ π_A(T) ∩ π_A(U) = {3}: BCQ answer 1.
	q := starBCQ(t, [][]int{{2, 3}, {3, 4}, {3, 5}, {3, 6}}, 8)
	for name, solver := range map[string]func(*Query[bool]) (*relation.Relation[bool], error){
		"brute": BruteForce[bool], "ghd": Solve[bool],
	} {
		res, err := solver(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v, err := relation.ScalarValue(q.S, res)
		if err != nil {
			t.Fatal(err)
		}
		if !v {
			t.Errorf("%s: BCQ = 0, want 1", name)
		}
	}
	// Disjoint projections: answer 0.
	q = starBCQ(t, [][]int{{2}, {3}, {4}, {5}}, 8)
	res, err := Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := relation.ScalarValue(q.S, res)
	if v {
		t.Error("BCQ = 1, want 0 for disjoint projections")
	}
}

func TestSelfLoopBCQ(t *testing.T) {
	// Example 2.1: H0 with four unary relations; BCQ is 4-way set
	// intersection.
	h := hypergraph.ExampleH0()
	sets := [][]int{{1, 2, 5}, {2, 5, 7}, {0, 5}, {5, 6}}
	factors := make([]*relation.Relation[bool], 4)
	for i, set := range sets {
		b := relation.NewBuilder[bool](sb, h.Edge(i))
		for _, a := range set {
			b.AddOne(a)
		}
		factors[i] = b.Build()
	}
	q := NewBCQ(h, factors, 8)
	res, err := Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := relation.ScalarValue(q.S, res)
	if !v {
		t.Error("BCQ = 0, want 1 (5 is in every set)")
	}
}

func TestChainSumProductMarginal(t *testing.T) {
	// A 3-factor chain x0—x1—x2—x3 over (ℝ≥0,+,×) with free variable x0:
	// φ(x0) = Σ_{x1,x2,x3} f0(x0,x1) f1(x1,x2) f2(x2,x3) — a PGM
	// marginal. Compare GHD pass against brute force.
	h := hypergraph.PathGraph(4)
	r := rand.New(rand.NewSource(17))
	dom := 3
	factors := make([]*relation.Relation[float64], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder[float64](sp, h.Edge(i))
		for a := 0; a < dom; a++ {
			for bb := 0; bb < dom; bb++ {
				b.Add([]int{a, bb}, float64(1+r.Intn(8))/8.0)
			}
		}
		factors[i] = b.Build()
	}
	q := &Query[float64]{S: sp, H: h, Factors: factors, Free: []int{0}, DomSize: dom}
	want, err := BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(sp, got, want) {
		t.Errorf("GHD marginal != brute force\n got=%v\nwant=%v", got, want)
	}
	if got.Len() != dom {
		t.Errorf("marginal has %d entries, want %d", got.Len(), dom)
	}
}

func TestNaturalJoinQuery(t *testing.T) {
	h := hypergraph.PathGraph(3)
	b0 := relation.NewBuilder[bool](sb, h.Edge(0))
	b0.AddOne(0, 1)
	b0.AddOne(1, 1)
	b1 := relation.NewBuilder[bool](sb, h.Edge(1))
	b1.AddOne(1, 0)
	b1.AddOne(1, 2)
	factors := []*relation.Relation[bool]{b0.Build(), b1.Build()}
	q := naturalJoin(h, factors, 3)
	got, err := BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	want := relation.Join(sb, factors[0], factors[1])
	if !relation.Equal(sb, got, want) {
		t.Errorf("natural join query != direct join")
	}
}

func TestGeneralFAQMaxAggregate(t *testing.T) {
	// Max-product (Viterbi) on a path: every bound variable aggregated
	// with max over (ℝ≥0,+,×) factors. max is a compatible semiring
	// aggregate (shares 0 and 1 with sum-product).
	h := hypergraph.PathGraph(3)
	dom := 3
	r := rand.New(rand.NewSource(5))
	factors := make([]*relation.Relation[float64], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder[float64](sp, h.Edge(i))
		for a := 0; a < dom; a++ {
			for c := 0; c < dom; c++ {
				b.Add([]int{a, c}, float64(1+r.Intn(16)))
			}
		}
		factors[i] = b.Build()
	}
	maxOp := semiring.AddOf[float64](semiring.MaxTimes{})
	q := &Query[float64]{
		S: sp, H: h, Factors: factors, Free: nil, DomSize: dom,
		VarOps: map[int]semiring.Op[float64]{0: maxOp, 1: maxOp, 2: maxOp},
	}
	want, err := BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(sp, got, want) {
		t.Error("max-product GHD pass != brute force")
	}
	v, err := relation.ScalarValue(sp, got)
	if err != nil {
		t.Fatal(err)
	}
	// The answer must equal the explicit maximum over all assignments.
	best := 0.0
	for a := 0; a < dom; a++ {
		for b := 0; b < dom; b++ {
			for c := 0; c < dom; c++ {
				p := lookup(t, factors[0], a, b) * lookup(t, factors[1], b, c)
				if p > best {
					best = p
				}
			}
		}
	}
	if v != best {
		t.Errorf("max-product = %v, want %v", v, best)
	}
}

func lookup(t *testing.T, r *relation.Relation[float64], vals ...int) float64 {
	t.Helper()
	for i := 0; i < r.Len(); i++ {
		tu := r.Tuple(i)
		match := true
		for k := range tu {
			if int(tu[k]) != vals[k] {
				match = false
				break
			}
		}
		if match {
			return r.Value(i)
		}
	}
	return 0
}

func TestProductAggregate(t *testing.T) {
	// φ = Σ_{x0} Π_{x1} f(x0, x1) over a single binary factor with
	// Dom = {0,1}: groups missing an x1 value are annihilated.
	h := hypergraph.New(2)
	h.AddEdge(0, 1)
	b := relation.NewBuilder[float64](sp, []int{0, 1})
	b.Add([]int{0, 0}, 2)
	b.Add([]int{0, 1}, 3) // x0=0: product 6
	b.Add([]int{1, 0}, 5) // x0=1: x1=1 missing -> product 0
	q := &Query[float64]{
		S: sp, H: h, Factors: []*relation.Relation[float64]{b.Build()},
		Free: nil, DomSize: 2,
		VarOps: map[int]semiring.Op[float64]{1: semiring.MulOf[float64](sp)},
	}
	res, err := BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	v, err := relation.ScalarValue(sp, res)
	if err != nil {
		t.Fatal(err)
	}
	if v != 6 {
		t.Errorf("Σ_x0 Π_x1 f = %v, want 6", v)
	}
	got, err := Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	gv, _ := relation.ScalarValue(sp, got)
	if gv != 6 {
		t.Errorf("GHD pass = %v, want 6", gv)
	}
}

func TestValidateRejections(t *testing.T) {
	h := hypergraph.PathGraph(3)
	good := []*relation.Relation[bool]{
		relation.Empty[bool](h.Edge(0)),
		relation.Empty[bool](h.Edge(1)),
	}
	cases := []struct {
		name string
		q    *Query[bool]
	}{
		{"nil hypergraph", &Query[bool]{S: sb, DomSize: 2}},
		{"bad domsize", &Query[bool]{S: sb, H: h, Factors: good, DomSize: 0}},
		{"missing factor", &Query[bool]{S: sb, H: h, Factors: good[:1], DomSize: 2}},
		{"nil factor", &Query[bool]{S: sb, H: h, Factors: []*relation.Relation[bool]{nil, nil}, DomSize: 2}},
		{"schema mismatch", &Query[bool]{S: sb, H: h,
			Factors: []*relation.Relation[bool]{relation.Empty[bool]([]int{0, 2}), good[1]}, DomSize: 2}},
		{"unsorted free", &Query[bool]{S: sb, H: h, Factors: good, Free: []int{1, 0}, DomSize: 2}},
		{"free out of range", &Query[bool]{S: sb, H: h, Factors: good, Free: []int{9}, DomSize: 2}},
		{"op on free var", &Query[bool]{S: sb, H: h, Factors: good, Free: []int{0}, DomSize: 2,
			VarOps: map[int]semiring.Op[bool]{0: semiring.AddOf[bool](sb)}}},
	}
	for _, c := range cases {
		if err := c.q.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestValidateDomainRange(t *testing.T) {
	h := hypergraph.New(2)
	h.AddEdge(0, 1)
	b := relation.NewBuilder[bool](sb, []int{0, 1})
	b.AddOne(0, 5)
	q := NewBCQ(h, []*relation.Relation[bool]{b.Build()}, 3)
	if err := q.Validate(); err == nil {
		t.Error("expected domain-range validation error")
	}

	// A factor's Builder-recorded value range settles the check without a
	// scan only inside [0, DomSize); outside it the scan reports the
	// offending value with the same message as ever.
	built := func(x, y int) *relation.Relation[bool] {
		b := relation.NewBuilder[bool](sb, []int{0, 1})
		b.AddOne(1, 2)
		b.AddOne(x, y)
		return b.Build()
	}
	// A relation the Builder did not build has no recorded range, so the
	// scan still runs on it: here a Join that emits rows already in order.
	joined := func(x, y int) *relation.Relation[bool] {
		a := relation.NewBuilder[bool](sb, []int{0})
		a.AddOne(x)
		b := relation.NewBuilder[bool](sb, []int{0, 1})
		b.AddOne(x, y)
		r := relation.Join[bool](sb, a.Build(), b.Build())
		if _, _, ok := r.ValueRange(); ok {
			t.Fatal("a Join that skipped the Builder reports a recorded value range")
		}
		return r
	}
	cases := []struct {
		name   string
		factor *relation.Relation[bool]
		want   string // "" accepts
	}{
		{"built/in-domain", built(0, 2), ""},
		{"built/negative", built(0, -1), "faq: factor 0 tuple value -1 outside domain [0,3)"},
		{"built/at-domsize", built(3, 0), "faq: factor 0 tuple value 3 outside domain [0,3)"},
		{"unbuilt/in-domain", joined(2, 0), ""},
		{"unbuilt/negative", joined(-4, 1), "faq: factor 0 tuple value -4 outside domain [0,3)"},
		{"unbuilt/at-domsize", joined(1, 3), "faq: factor 0 tuple value 3 outside domain [0,3)"},
	}
	for _, c := range cases {
		err := NewBCQ(h, []*relation.Relation[bool]{c.factor}, 3).Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
	}
	if lo, hi, ok := built(0, 2).ValueRange(); !ok || lo != 0 || hi != 2 {
		t.Errorf("Builder value range = (%d, %d, %v), want (0, 2, true)", lo, hi, ok)
	}
}

func TestFreeVarOutsideRootBagRejected(t *testing.T) {
	// Path x0—x1—x2—x3—x4 with F = {0, 4}: no single edge bag contains
	// both endpoints, so the GHD solver must reject (Appendix G.5).
	h := hypergraph.PathGraph(5)
	factors := make([]*relation.Relation[bool], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder[bool](sb, h.Edge(i))
		b.AddOne(0, 0)
		factors[i] = b.Build()
	}
	q := &Query[bool]{S: sb, H: h, Factors: factors, Free: []int{0, 4}, DomSize: 2}
	if _, err := Solve(q); err == nil {
		t.Error("expected free-variable restriction error")
	}
	// Brute force still handles it.
	if _, err := BruteForce(q); err != nil {
		t.Errorf("brute force should handle arbitrary F: %v", err)
	}
}

// randomTreeQuery builds a random acyclic BCQ or sum-product query.
func randomTreeQuery(r *rand.Rand, n, dom, tuples int) (*hypergraph.Hypergraph, []*relation.Relation[float64]) {
	h := hypergraph.New(n)
	for v := 1; v < n; v++ {
		h.AddEdge(r.Intn(v), v)
	}
	factors := make([]*relation.Relation[float64], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder[float64](sp, h.Edge(i))
		for k := 0; k < tuples; k++ {
			b.Add([]int{r.Intn(dom), r.Intn(dom)}, float64(1+r.Intn(4)))
		}
		factors[i] = b.Build()
	}
	return h, factors
}

func TestSolveMatchesBruteForceOnRandomTrees(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		h, factors := randomTreeQuery(r, 3+r.Intn(5), 3, 1+r.Intn(9))
		q := &Query[float64]{S: sp, H: h, Factors: factors, Free: nil, DomSize: 3}
		want, err := BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(sp, got, want) {
			t.Fatalf("trial %d: GHD != brute force on %v", trial, h)
		}
	}
}

func TestSolveMatchesBruteForceOnRandomCyclic(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(4)
		h := hypergraph.New(n)
		for i := 0; i < n; i++ {
			h.AddEdge(i, (i+1)%n) // cycle core
		}
		if r.Intn(2) == 0 && n < 6 {
			h.AddEdge(r.Intn(n)) // pendant self-loop
		}
		dom := 3
		factors := make([]*relation.Relation[float64], h.NumEdges())
		for i := range factors {
			schema := h.Edge(i)
			b := relation.NewBuilder[float64](sp, schema)
			for k := 0; k < 2+r.Intn(6); k++ {
				tuple := make([]int, len(schema))
				for j := range tuple {
					tuple[j] = r.Intn(dom)
				}
				b.Add(tuple, float64(1+r.Intn(3)))
			}
			factors[i] = b.Build()
		}
		q := &Query[float64]{S: sp, H: h, Factors: factors, Free: nil, DomSize: dom}
		want, err := BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(sp, got, want) {
			t.Fatalf("trial %d: GHD != brute force on cyclic %v", trial, h)
		}
	}
}

func TestMaxFactorSize(t *testing.T) {
	q := starBCQ(t, [][]int{{1}, {1, 2}, {1, 2, 3}, {1}}, 8)
	if got := q.MaxFactorSize(); got != 3 {
		t.Errorf("N = %d, want 3", got)
	}
}

// naturalJoin builds the natural join query (footnote 4: F = V over
// the Boolean semiring).
func naturalJoin(h *hypergraph.Hypergraph, factors []*relation.Relation[bool], domSize int) *Query[bool] {
	q := NewBCQ(h, factors, domSize)
	for v := 0; v < h.NumVertices(); v++ {
		q.Free = append(q.Free, v)
	}
	return q
}
