package protocol

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/topology"
)

// buildDeterminismSetup assembles a multi-star caterpillar query whose
// schedule exercises repeated star reductions, converge-casts, and
// finalization — the paths with map-iteration-order hazards
// (fastStar/convergeOverPackingStaggered) this file guards.
func buildDeterminismSetup(t *testing.T, seed int64) *Setup[float64] {
	t.Helper()
	b := hypergraph.NewBuilder()
	b.Edge("A", "B")
	b.Edge("B", "C")
	b.Edge("C", "D")
	b.Edge("D", "E")
	b.Edge("B", "F")
	b.Edge("C", "G")
	b.Edge("D", "H")
	h := b.Build()
	r := rand.New(rand.NewSource(seed))
	dom := 8
	factors := make([]*relation.Relation[float64], h.NumEdges())
	for i := range factors {
		bb := relation.NewBuilder[float64](sp, h.Edge(i))
		for k := 0; k < 30; k++ {
			bb.Add([]int{r.Intn(dom), r.Intn(dom)}, float64(1+r.Intn(16))/8)
		}
		factors[i] = bb.Build()
	}
	q := &faq.Query[float64]{S: sp, H: h, Factors: factors, DomSize: dom}
	g := topology.Grid(2, 4)
	assign := make(Assignment, h.NumEdges())
	for i := range assign {
		assign[i] = i % g.N()
	}
	return &Setup[float64]{Q: q, G: g, Assign: assign, Output: 7}
}

func valuesIdentical(a, b *relation.Relation[float64]) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Value(i) != b.Value(i) { // exact float bits, no tolerance
			return false
		}
	}
	return true
}

// TestRunDeterminismAcrossInvocations is the determinism regression:
// repeated Run/RunTrivial invocations on the same Setup must report
// identical Rounds/Bits and produce bit-identical answer relations.
func TestRunDeterminismAcrossInvocations(t *testing.T) {
	s := buildDeterminismSetup(t, 811)
	ans0, rep0, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	t0, trep0, err := RunTrivial(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		ans, rep, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if rep != rep0 {
			t.Fatalf("run %d: Report %v != %v", i, rep, rep0)
		}
		if !relation.Equal(sp, ans, ans0) || !valuesIdentical(ans, ans0) {
			t.Fatalf("run %d: answer relation drifted", i)
		}
		ta, trep, err := RunTrivial(s)
		if err != nil {
			t.Fatal(err)
		}
		if trep != trep0 {
			t.Fatalf("trivial run %d: Report %v != %v", i, trep, trep0)
		}
		if !relation.Equal(sp, ta, t0) || !valuesIdentical(ta, t0) {
			t.Fatalf("trivial run %d: answer relation drifted", i)
		}
	}
}

// TestRunParallelMatchesSequential is the protocol-level
// parallel≡sequential equivalence: worker count must change neither the
// measured schedule (the ledger stays sequential) nor a single bit of
// the answer.
func TestRunParallelMatchesSequential(t *testing.T) {
	s := buildDeterminismSetup(t, 813)
	prev := exec.SetWorkers(1)
	ansSeq, repSeq, err1 := Run(s)
	tSeq, trepSeq, err2 := RunTrivial(s)
	exec.SetWorkers(8)
	ansPar, repPar, err3 := Run(s)
	tPar, trepPar, err4 := RunTrivial(s)
	exec.SetWorkers(prev)
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if repPar != repSeq || trepPar != trepSeq {
		t.Fatalf("parallel reports %v/%v != sequential %v/%v", repPar, trepPar, repSeq, trepSeq)
	}
	if !relation.Equal(sp, ansPar, ansSeq) || !valuesIdentical(ansPar, ansSeq) {
		t.Fatal("parallel Run answer not bit-identical to sequential")
	}
	if !relation.Equal(sp, tPar, tSeq) || !valuesIdentical(tPar, tSeq) {
		t.Fatal("parallel RunTrivial answer not bit-identical to sequential")
	}
}

// TestEmptyRelationAccountingPinned pins the corrected cost accounting:
// an empty relation is a 1-bit "it is empty" notification in RunTrivial,
// corePhase, and finalize alike — never a free ride. Before the fix,
// both protocols reported 0 rounds / 0 bits here while the output player
// somehow "knew" the answer was empty.
func TestEmptyRelationAccountingPinned(t *testing.T) {
	// Trivial protocol: path BCQ, both factors empty, players 0 and 1,
	// output 2 on the line. Factor 0 notifies over two hops (2 bits),
	// factor 1 over one (1 bit); the hops pipeline into 2 rounds.
	h := hypergraph.PathGraph(3)
	factors := []*relation.Relation[bool]{
		relation.Empty[bool](h.Edge(0)),
		relation.Empty[bool](h.Edge(1)),
	}
	q := faq.NewBCQ(h, factors, 4)
	s := &Setup[bool]{Q: q, G: topology.Line(3), Assign: Assignment{0, 1}, Output: 2}
	ans, rep, err := RunTrivial(s)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := relation.ScalarValue(sb, ans); v {
		t.Error("BCQ over empty factors must be false")
	}
	if rep.Rounds != 2 || rep.Bits != 3 {
		t.Errorf("trivial Report = %v, want 2 rounds / 3 bits", rep)
	}

	// Main protocol, cyclic core: triangle + pendant on the 4-ring, all
	// factors empty, output 2. corePhase children at players 0 (two
	// hops), 1, and 3 (one hop each) each send the 1-bit notification:
	// 4 bits, pipelined into 2 rounds. The core child owned by the
	// output player itself is free, as is finalize (owner == output).
	b := hypergraph.NewBuilder()
	b.Edge("A", "B")
	b.Edge("B", "C")
	b.Edge("A", "C")
	b.Edge("C", "D")
	h2 := b.Build()
	factors2 := make([]*relation.Relation[bool], h2.NumEdges())
	for i := range factors2 {
		factors2[i] = relation.Empty[bool](h2.Edge(i))
	}
	q2 := faq.NewBCQ(h2, factors2, 4)
	s2 := &Setup[bool]{Q: q2, G: topology.Ring(4), Assign: Assignment{0, 1, 2, 3}, Output: 2}
	ans2, rep2, err := Run(s2)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := relation.ScalarValue(sb, ans2); v {
		t.Error("cyclic BCQ over empty factors must be false")
	}
	if rep2.Rounds != 2 || rep2.Bits != 4 {
		t.Errorf("main Report = %v, want 2 rounds / 4 bits", rep2)
	}
}

// TestColumnsOfVerifiesMembership pins the column lookup the engine
// resolves message and key columns with: a variable missing from the
// schema must surface as an error, not as a silently wrong column index.
func TestColumnsOfVerifiesMembership(t *testing.T) {
	cols, err := relation.Columns([]int{0, 2, 5}, []int{5, 0})
	if err != nil || cols[0] != 2 || cols[1] != 0 {
		t.Fatalf("relation.Columns = %v, %v; want [2 0], nil", cols, err)
	}
	for _, vs := range [][]int{{1}, {6}, {-1}, {0, 3}} {
		if _, err := relation.Columns([]int{0, 2, 5}, vs); err == nil {
			t.Errorf("relation.Columns(schema, %v): expected error", vs)
		}
	}
}

// TestSolveCentralFallbackPolicy pins the sentinel-gated fallback: only
// the paper's free-variable restriction may route solveCentral to the
// exponential BruteForce; every other solver error must propagate.
func TestSolveCentralFallbackPolicy(t *testing.T) {
	// Sentinel case: F = {0, 4} on a path — no bag covers both, Solve
	// fails with ErrFreeOutsideRoot, BruteForce takes over.
	h := hypergraph.PathGraph(5)
	factors := make([]*relation.Relation[bool], h.NumEdges())
	for i := range factors {
		b := relation.NewBuilder[bool](sb, h.Edge(i))
		b.AddOne(1, 1)
		factors[i] = b.Build()
	}
	q := &faq.Query[bool]{S: sb, H: h, Factors: factors, Free: []int{0, 4}, DomSize: 2}
	if _, err := faq.Solve(q); !errors.Is(err, faq.ErrFreeOutsideRoot) {
		t.Fatalf("precondition: Solve should fail with the sentinel, got %v", err)
	}
	got, err := solveCentral(q)
	if err != nil {
		t.Fatalf("solveCentral must brute-force the sentinel case: %v", err)
	}
	want, err := faq.BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(sb, got, want) {
		t.Error("fallback answer != brute force")
	}

	// Non-sentinel case: a zero-edge query. BruteForce would happily
	// return the unit relation, but Solve fails in GHD construction —
	// a structural error that must now propagate instead of being
	// silently brute-forced away.
	empty := &faq.Query[bool]{S: sb, H: hypergraph.New(2), Factors: nil, DomSize: 2}
	if _, err := faq.BruteForce(empty); err != nil {
		t.Fatalf("precondition: BruteForce handles the zero-edge query: %v", err)
	}
	if _, err := solveCentral(empty); err == nil || !strings.Contains(err.Error(), "no edges") {
		t.Errorf("solveCentral = %v, want propagated ghd construction error", err)
	}

	// End to end: RunTrivial on the sentinel case still succeeds.
	s := &Setup[bool]{Q: q, G: topology.Line(2), Assign: Assignment{0, 0, 0, 0}, Output: 1}
	ans, _, err := RunTrivial(s)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(sb, ans, want) {
		t.Error("RunTrivial sentinel-fallback answer != brute force")
	}
}
