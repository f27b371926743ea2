package tribes

import (
	"math/rand"
	"testing"

	"repro/internal/faq"
	"repro/internal/flow"
	"repro/internal/hypergraph"
	"repro/internal/protocol"
	"repro/internal/relation"
	"repro/internal/topology"
)

func TestInstanceEval(t *testing.T) {
	in := &Instance{N: 4, S: [][]int{{0, 1}, {2}}, T: [][]int{{1, 3}, {2, 3}}}
	if !in.Eval() {
		t.Error("both pairs intersect: want 1")
	}
	in2 := &Instance{N: 4, S: [][]int{{0, 1}, {2}}, T: [][]int{{1}, {3}}}
	if in2.Eval() {
		t.Error("second pair disjoint: want 0")
	}
}

func TestHardInstanceValues(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		if !HardInstance(3, 8, true, r).Eval() {
			t.Fatal("HardInstance(true) evaluated to 0")
		}
		if HardInstance(3, 8, false, r).Eval() {
			t.Fatal("HardInstance(false) evaluated to 1")
		}
	}
}

func TestValidate(t *testing.T) {
	bad := &Instance{N: 4, S: [][]int{{9}}, T: [][]int{{0}}}
	if err := bad.Validate(); err == nil {
		t.Error("expected range error")
	}
	bad2 := &Instance{N: 4, S: [][]int{{0}}, T: nil}
	if err := bad2.Validate(); err == nil {
		t.Error("expected shape error")
	}
}

// checkEquivalence asserts BCQ(embedding) == TRIBES(instance) via the
// brute-force solver — the heart of the reduction's correctness.
func checkEquivalence(t *testing.T, emb *Embedding, in *Instance, label string) {
	t.Helper()
	res, err := faq.BruteForce(emb.Q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, err := relation.ScalarValue(emb.Q.S, res)
	if err != nil {
		t.Fatal(err)
	}
	if got != in.Eval() {
		t.Errorf("%s: BCQ = %v but TRIBES = %v", label, got, in.Eval())
	}
}

func TestEmbedStarExample24(t *testing.T) {
	// Example 2.4: TRIBES_{1,N} embedded in the star H1.
	h := hypergraph.ExampleH1()
	sites, err := SitesForForest(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 || sites[0].Vertex != 0 {
		t.Fatalf("star sites = %+v, want the center", sites)
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		in := RandomInstance(1, 6, r)
		emb, err := EmbedAtSites(h, sites, in)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, emb, in, "star")
	}
}

func TestEmbedForestPath(t *testing.T) {
	// P6 has level sets of sizes 2 and 2: m = 2 pairs embed.
	h := hypergraph.PathGraph(6)
	sites, err := SitesForForest(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) < 2 {
		t.Fatalf("sites = %d, want ≥ 2", len(sites))
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		in := RandomInstance(2, 5, r)
		emb, err := EmbedAtSites(h, sites, in)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, emb, in, "path")
	}
}

func TestEmbedIndependentSetOnGrid(t *testing.T) {
	// A 2x2 grid graph (4-cycle): independent set of size 2.
	h := hypergraph.CycleGraph(4)
	sites, err := SitesForIndependentSet(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) < 2 {
		t.Fatalf("IS sites = %d, want ≥ 2", len(sites))
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		in := RandomInstance(len(sites), 4, r)
		emb, err := EmbedAtSites(h, sites, in)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, emb, in, "independent-set")
	}
}

func TestEmbedStrongISOnHypergraph(t *testing.T) {
	// H2 has arity 3; strong IS sites with degree ≥ 2 exist (A, B, C).
	h := hypergraph.ExampleH2()
	sites, err := SitesForStrongIS(h)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		in := RandomInstance(len(sites), 5, r)
		emb, err := EmbedAtSites(h, sites, in)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, emb, in, "strong-IS")
	}
}

func TestEmbedOnCyclesC5(t *testing.T) {
	h := hypergraph.CycleGraph(5)
	cycles := []hypergraph.Cycle{{0, 1, 2, 3, 4}}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		in := RandomInstance(1, 9, r) // ν = 3
		emb, err := EmbedOnCycles(h, cycles, in)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, emb, in, "cycle")
	}
}

func TestEmbedOnCyclesTwoTriangles(t *testing.T) {
	// Two disjoint triangles sharing an apex path: embed 2 pairs.
	b := hypergraph.NewBuilder()
	b.Edge("A", "B")
	b.Edge("B", "C")
	b.Edge("A", "C")
	b.Edge("D", "E")
	b.Edge("E", "F")
	b.Edge("D", "F")
	b.Edge("C", "D") // connector outside both cycles
	h := b.Build()
	cycles := []hypergraph.Cycle{{0, 1, 2}, {3, 4, 5}}
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		in := RandomInstance(2, 4, r) // ν = 2
		emb, err := EmbedOnCycles(h, cycles, in)
		if err != nil {
			t.Fatal(err)
		}
		checkEquivalence(t, emb, in, "two-cycles")
	}
}

func TestCyclesCollector(t *testing.T) {
	h := hypergraph.CliqueGraph(6)
	cycles := Cycles(h)
	if len(cycles) == 0 {
		t.Error("expected short cycles in K6")
	}
}

func TestEmbedErrors(t *testing.T) {
	h := hypergraph.PathGraph(4)
	sites, err := SitesForForest(h)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	// Too many pairs.
	in := RandomInstance(len(sites)+1, 4, r)
	if _, err := EmbedAtSites(h, sites, in); err == nil {
		t.Error("expected error for too many pairs")
	}
	// Non-square N for cycles.
	if _, err := EmbedOnCycles(hypergraph.CycleGraph(4), []hypergraph.Cycle{{0, 1, 2, 3}},
		RandomInstance(1, 5, r)); err == nil {
		t.Error("expected error for non-square N")
	}
	// Forest sites on a cyclic graph.
	if _, err := SitesForForest(hypergraph.CycleGraph(4)); err == nil {
		t.Error("expected error for non-forest")
	}
}

func TestLowerBoundRounds(t *testing.T) {
	if got := LowerBoundBits(2, 64); got != 128 {
		t.Errorf("LB bits = %v, want 128", got)
	}
	// 128 bits / (cut 1 · log-cut 1 · log-N 6).
	if got := LowerBoundRounds(2, 64, 1); got != 128.0/6 {
		t.Errorf("LB = %v, want %v", got, 128.0/6)
	}
	// 128 / (4 · 2 · 6).
	if got := LowerBoundRounds(2, 64, 4); got != 128.0/48 {
		t.Errorf("LB = %v, want %v", got, 128.0/48)
	}
	if got := LowerBoundRounds(2, 64, 0); got != 0 {
		t.Errorf("LB with no cut = %v, want 0", got)
	}
}

// TestExample24TightnessOnLine runs the full Lemma 4.4 pipeline: embed
// TRIBES in the star, assign relations across the line's min cut, run
// the real protocol, and check the measured rounds sit between the
// lower-bound formula and a constant multiple of it — the paper's
// headline tightness for d = O(1).
func TestExample24TightnessOnLine(t *testing.T) {
	h := hypergraph.ExampleH1()
	sites, err := SitesForForest(h)
	if err != nil {
		t.Fatal(err)
	}
	N := 64
	r := rand.New(rand.NewSource(17))
	in := HardInstance(1, N, true, r)
	emb, err := EmbedAtSites(h, sites, in)
	if err != nil {
		t.Fatal(err)
	}
	g := topology.Line(4)
	K := []int{0, 1, 2, 3}
	minCut, side, err := flow.MinCutSeparating(g, K)
	if err != nil {
		t.Fatal(err)
	}
	assign, aNode, bNode, err := CutAssignment(emb, side)
	if err != nil {
		t.Fatal(err)
	}
	if aNode == bNode {
		t.Fatal("degenerate cut assignment")
	}
	s := &protocol.Setup[bool]{Q: emb.Q, G: g, Assign: assign, Output: bNode}
	ans, rep, err := protocol.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := relation.ScalarValue(emb.Q.S, ans)
	if v != in.Eval() {
		t.Errorf("protocol answer %v != TRIBES %v", v, in.Eval())
	}
	lb := LowerBoundRounds(emb.M, N, minCut)
	if float64(rep.Rounds) < lb {
		t.Errorf("measured %d rounds below the lower bound %v — impossible", rep.Rounds, lb)
	}
	// Tightness within the Ω̃-hidden log factor (log₂N = 6 here) and a
	// small constant: the paper's Θ̃(N/MinCut) for d = O(1).
	logN := 6.0
	if float64(rep.Rounds) > 4*lb*logN+32 {
		t.Errorf("measured %d rounds far above LB %v·log: tightness lost", rep.Rounds, lb)
	}
	// In bits, the protocol must pay the Theorem 2.3 toll.
	if float64(rep.Bits) < LowerBoundBits(emb.M, N)/2 {
		t.Errorf("measured %d bits below the Ω(mN) = %v bit bound", rep.Bits, LowerBoundBits(emb.M, N))
	}
}

// RandomInstance samples m pairs of random subsets (each element kept
// with probability 1/2), which yields both values of TRIBES.
func RandomInstance(m, n int, r *rand.Rand) *Instance {
	in := &Instance{N: n}
	for i := 0; i < m; i++ {
		var s, t []int
		for x := 0; x < n; x++ {
			if r.Intn(2) == 0 {
				s = append(s, x)
			}
			if r.Intn(2) == 0 {
				t = append(t, x)
			}
		}
		in.S = append(in.S, s)
		in.T = append(in.T, t)
	}
	return in
}
