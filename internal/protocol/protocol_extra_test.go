package protocol

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/faq"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/topology"
)

// TestCountSemiringDistributed counts join results distributed: the
// counting semiring (ℤ, +, ×) is an FAQ-SS the same machinery must
// serve (Section 1's semiring-agnostic claim).
func TestCountSemiringDistributed(t *testing.T) {
	sc := semiring.Count{}
	h := hypergraph.PathGraph(4)
	r := rand.New(rand.NewSource(61))
	dom := 4
	factors := make([]*relation.Relation[int64], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder[int64](sc, h.Edge(i))
		// Distinct tuples: duplicate insertions would (correctly) merge
		// to multiplicity 2 under (ℤ, +, ×) — bag semantics — and then
		// the count exceeds the set-semantics join size.
		seen := map[[2]int]bool{}
		for k := 0; k < 10; k++ {
			tu := [2]int{r.Intn(dom), r.Intn(dom)}
			if seen[tu] {
				continue
			}
			seen[tu] = true
			b.Add(tu[:], 1)
		}
		factors[i] = b.Build()
	}
	q := &faq.Query[int64]{S: sc, H: h, Factors: factors, DomSize: dom}
	s := &Setup[int64]{Q: q, G: topology.Line(3), Assign: Assignment{0, 1, 2}, Output: 2}
	ans, _, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := faq.BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(sc, ans, want) {
		t.Error("distributed count != brute force")
	}
	// The count must equal the natural join's size.
	qb := faq.NewBCQ(h, boolFactors(factors), dom)
	for v := 0; v < h.NumVertices(); v++ {
		qb.Free = append(qb.Free, v) // the natural join: F = V
	}
	join, err := faq.BruteForce(qb)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := relation.ScalarValue(sc, want)
	if err != nil {
		t.Fatal(err)
	}
	if int(cnt) != join.Len() {
		t.Errorf("count %d != join size %d", cnt, join.Len())
	}
}

func boolFactors(fs []*relation.Relation[int64]) []*relation.Relation[bool] {
	sb := semiring.Bool{}
	out := make([]*relation.Relation[bool], len(fs))
	for i, f := range fs {
		b := relation.NewBuilder[bool](sb, f.Schema())
		tuple := make([]int, f.Arity())
		for j := 0; j < f.Len(); j++ {
			for k, x := range f.Tuple(j) {
				tuple[k] = int(x)
			}
			b.AddOne(tuple...)
		}
		out[i] = b.Build()
	}
	return out
}

// TestMinPlusSemiringDistributed runs a tropical (min, +) FAQ — e.g.
// cheapest consistent assignment — distributed vs brute force.
func TestMinPlusSemiringDistributed(t *testing.T) {
	mp := semiring.MinPlus{}
	h := hypergraph.StarGraph(3)
	r := rand.New(rand.NewSource(62))
	dom := 4
	factors := make([]*relation.Relation[float64], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder[float64](mp, h.Edge(i))
		for a := 0; a < dom; a++ {
			for c := 0; c < dom; c++ {
				b.Add([]int{a, c}, float64(r.Intn(20)))
			}
		}
		factors[i] = b.Build()
	}
	q := &faq.Query[float64]{S: mp, H: h, Factors: factors, DomSize: dom}
	s := &Setup[float64]{Q: q, G: topology.Line(3), Assign: Assignment{0, 1, 2}, Output: 0}
	ans, _, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := faq.BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(mp, ans, want) {
		t.Error("distributed min-plus != brute force")
	}
}

// TestEmptyFactorPropagates ensures an empty relation collapses the
// answer everywhere without panicking.
func TestEmptyFactorPropagates(t *testing.T) {
	sb := semiring.Bool{}
	h := hypergraph.ExampleH1()
	factors := make([]*relation.Relation[bool], h.NumEdges())
	for i := range factors {
		if i == 2 {
			factors[i] = relation.Empty[bool](h.Edge(i))
			continue
		}
		b := relation.NewBuilder[bool](sb, h.Edge(i))
		b.AddOne(1, 1)
		factors[i] = b.Build()
	}
	q := faq.NewBCQ(h, factors, 4)
	s := &Setup[bool]{Q: q, G: topology.Line(4), Assign: Assignment{0, 1, 2, 3}, Output: 3}
	ans, _, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := relation.ScalarValue(sb, ans)
	if v {
		t.Error("BCQ with an empty factor must be false")
	}
	tAns, _, err := RunTrivial(s)
	if err != nil {
		t.Fatal(err)
	}
	tv, _ := relation.ScalarValue(sb, tAns)
	if tv {
		t.Error("trivial protocol disagrees on empty factor")
	}
}

// TestCustomBitsPerRound checks that widening channels reduces rounds
// roughly proportionally (the footnote-6 generalization B ≠ r·log D).
func TestCustomBitsPerRound(t *testing.T) {
	sb := semiring.Bool{}
	N := 128
	h := hypergraph.ExampleH1()
	factors := make([]*relation.Relation[bool], h.NumEdges())
	r := rand.New(rand.NewSource(63))
	for i := range factors {
		b := relation.NewBuilder[bool](sb, h.Edge(i))
		for x := 0; x < N; x++ {
			b.AddOne(x, r.Intn(N))
		}
		factors[i] = b.Build()
	}
	q := faq.NewBCQ(h, factors, N)
	narrow := &Setup[bool]{Q: q, G: topology.Line(4), Assign: Assignment{0, 1, 2, 3}, Output: 0}
	_, repN, err := Run(narrow)
	if err != nil {
		t.Fatal(err)
	}
	wide := &Setup[bool]{Q: q, G: topology.Line(4), Assign: Assignment{0, 1, 2, 3}, Output: 0,
		BitsPerRound: narrow.DefaultBits() * 8}
	_, repW, err := Run(wide)
	if err != nil {
		t.Fatal(err)
	}
	if repW.Rounds >= repN.Rounds {
		t.Errorf("8x channel width should cut rounds: %d vs %d", repW.Rounds, repN.Rounds)
	}
	if repW.Rounds > repN.Rounds/4 {
		t.Errorf("8x width only got %d vs %d rounds", repW.Rounds, repN.Rounds)
	}
}

// TestRunOnGHDAblation runs the same query on the minimized GHD and on
// a deliberately deep chain GHD: more internal nodes must not change the
// answer, only the round count (the y(H) width ablation).
func TestRunOnGHDAblation(t *testing.T) {
	sb := semiring.Bool{}
	N := 64
	h := hypergraph.ExampleH1()
	factors := make([]*relation.Relation[bool], h.NumEdges())
	r := rand.New(rand.NewSource(64))
	for i := range factors {
		b := relation.NewBuilder[bool](sb, h.Edge(i))
		for x := 0; x < N; x++ {
			b.AddOne(x, r.Intn(N))
		}
		factors[i] = b.Build()
	}
	q := faq.NewBCQ(h, factors, N)
	s := &Setup[bool]{Q: q, G: topology.Line(4), Assign: Assignment{0, 1, 2, 3}, Output: 0}

	flat, err := ghd.Minimize(h)
	if err != nil {
		t.Fatal(err)
	}
	chain := &ghd.GHD{
		H:        h,
		Bags:     [][]int{h.Edge(0), h.Edge(1), h.Edge(2), h.Edge(3)},
		Labels:   [][]int{{0}, {1}, {2}, {3}},
		Parent:   []int{-1, 0, 1, 2},
		Root:     0,
		NodeOf:   []int{0, 1, 2, 3},
		CoreRoot: -1,
	}
	if err := chain.Validate(); err != nil {
		t.Fatal(err)
	}
	aFlat, repFlat, err := RunOnGHD(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	aChain, repChain, err := RunOnGHD(s, chain)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(sb, aFlat, aChain) {
		t.Error("GHD shape changed the answer")
	}
	if repChain.Rounds <= repFlat.Rounds {
		t.Logf("note: chain GHD (%d rounds) did not exceed flat (%d); acceptable when streams filter early",
			repChain.Rounds, repFlat.Rounds)
	}
	if flat.InternalNodes() >= chain.InternalNodes() {
		t.Errorf("flat GHD should have fewer internal nodes: %d vs %d",
			flat.InternalNodes(), chain.InternalNodes())
	}
	// The chain's root bag is edge 0, so a free variable only edge 3
	// holds breaks F ⊆ χ(root): RunOnGHD must report the faq sentinel.
	qf := *q
	qf.Free = hypergraph.DiffSorted(h.Edge(3), h.Edge(0))[:1]
	sf := *s
	sf.Q = &qf
	if _, _, err := RunOnGHD(&sf, chain); !errors.Is(err, faq.ErrFreeOutsideRoot) {
		t.Errorf("free variable outside the root bag: err = %v, want wrapped faq.ErrFreeOutsideRoot", err)
	}
}

// TestManyRelationsPerPlayer exercises |K| < k: several relations
// co-located at each player (the paper's lower bounds rely on this).
func TestManyRelationsPerPlayer(t *testing.T) {
	sb := semiring.Bool{}
	h := hypergraph.StarGraph(6)
	r := rand.New(rand.NewSource(65))
	N := 32
	factors := make([]*relation.Relation[bool], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder[bool](sb, h.Edge(i))
		for x := 0; x < N; x++ {
			b.AddOne(x, r.Intn(N))
		}
		factors[i] = b.Build()
	}
	q := faq.NewBCQ(h, factors, N)
	// Six relations on two players.
	s := &Setup[bool]{Q: q, G: topology.Line(2), Assign: Assignment{0, 0, 0, 1, 1, 1}, Output: 1}
	ans, rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := faq.BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(sb, ans, want) {
		t.Error("co-located relations broke correctness")
	}
	if rep.Rounds > 2*N {
		t.Errorf("rounds = %d, expected ≈ N for a single-edge cut", rep.Rounds)
	}
}

// TestAllRelationsOneOwner checks the degenerate zero-communication
// case except answer delivery.
func TestAllRelationsOneOwner(t *testing.T) {
	sb := semiring.Bool{}
	h := hypergraph.ExampleH1()
	factors := make([]*relation.Relation[bool], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder[bool](sb, h.Edge(i))
		b.AddOne(2, 3)
		factors[i] = b.Build()
	}
	q := faq.NewBCQ(h, factors, 4)
	s := &Setup[bool]{Q: q, G: topology.Line(3), Assign: Assignment{0, 0, 0, 0}, Output: 2}
	ans, rep, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := relation.ScalarValue(sb, ans)
	if !v {
		t.Error("BCQ should be true")
	}
	// Only the answer (1 tuple) moves: 2 hops.
	if rep.Rounds > 4 {
		t.Errorf("rounds = %d, want ≤ 4 (answer routing only)", rep.Rounds)
	}
}

// TestSetIntersectionEmptyResult drives the protocol to an empty
// intersection.
func TestSetIntersectionEmptyResult(t *testing.T) {
	g := topology.Line(3)
	got, _, err := SetIntersection(&SetIntersectionInput{
		G:      g,
		Sets:   map[int][]int{0: {1, 2}, 1: {3, 4}, 2: {1, 3}},
		Output: 2, Universe: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("intersection = %v, want empty", got)
	}
}

// TestDeepForestQuery runs a depth-4 caterpillar tree query whose GHD
// has several internal nodes, forcing repeated star reductions.
func TestDeepForestQuery(t *testing.T) {
	sb := semiring.Bool{}
	b := hypergraph.NewBuilder()
	// Path A-B-C-D-E with leaves hanging off B, C, D.
	b.Edge("A", "B")
	b.Edge("B", "C")
	b.Edge("C", "D")
	b.Edge("D", "E")
	b.Edge("B", "F")
	b.Edge("C", "G")
	b.Edge("D", "H")
	h := b.Build()
	r := rand.New(rand.NewSource(66))
	N := 24
	factors := make([]*relation.Relation[bool], h.NumEdges())
	for i := range factors {
		bb := relation.NewBuilder[bool](sb, h.Edge(i))
		for x := 0; x < N; x++ {
			bb.AddOne(r.Intn(8), r.Intn(8))
		}
		factors[i] = bb.Build()
	}
	q := faq.NewBCQ(h, factors, 8)
	g := topology.Grid(2, 4)
	assign := make(Assignment, h.NumEdges())
	for i := range assign {
		assign[i] = i % g.N()
	}
	s := &Setup[bool]{Q: q, G: g, Assign: assign, Output: 7}
	ans, _, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := faq.BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(sb, ans, want) {
		t.Error("caterpillar query answer mismatch")
	}
}

// coreBelowRootQuery is a triangle with a three-edge pendant path whose
// far end is the only free variable, so RootForFree moves the root to
// the path's end and the factorless core sits two levels below it.
func coreBelowRootQuery(seed int64) *faq.Query[int64] {
	sc := semiring.Count{}
	h := hypergraph.New(6)
	for _, e := range [][]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}} {
		h.AddEdge(e...)
	}
	r := rand.New(rand.NewSource(seed))
	dom := 4
	factors := make([]*relation.Relation[int64], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder[int64](sc, h.Edge(i))
		for k := 0; k < 12; k++ {
			b.Add([]int{r.Intn(dom), r.Intn(dom)}, int64(1+r.Intn(3)))
		}
		factors[i] = b.Build()
	}
	return &faq.Query[int64]{S: sc, H: h, Factors: factors, Free: []int{5}, DomSize: dom}
}

// TestRunCoreBelowRoot runs the main protocol on a GHD whose cyclic
// core is not the root: the core phase runs where the core sits and
// hands its message up to the pendant path. The answer must equal
// BruteForce and the Report must not depend on the worker count.
func TestRunCoreBelowRoot(t *testing.T) {
	sc := semiring.Count{}
	q := coreBelowRootQuery(67)
	g, err := faq.PlanGHD(q.H, q.Free)
	if err != nil {
		t.Fatal(err)
	}
	if g.CoreRoot < 0 || g.CoreRoot == g.Root {
		t.Fatalf("precondition: want the core below the root, got core %d root %d", g.CoreRoot, g.Root)
	}
	want, err := faq.BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	s := &Setup[int64]{Q: q, G: topology.Line(4), Assign: Assignment{0, 1, 2, 3, 0, 1}, Output: 3}
	prev := exec.SetWorkers(1)
	defer exec.SetWorkers(prev)
	_, ref, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		exec.SetWorkers(w)
		ans, rep, err := Run(s)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !relation.Equal(sc, ans, want) {
			t.Fatalf("workers=%d: answer differs from BruteForce", w)
		}
		if rep != ref {
			t.Fatalf("workers=%d: Report %+v != %+v", w, rep, ref)
		}
	}
}
