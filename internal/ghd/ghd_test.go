package ghd

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hypergraph"
)

func TestConstructStarH1(t *testing.T) {
	h := hypergraph.ExampleH1()
	g, err := Construct(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.InternalNodes(); got != 1 {
		t.Errorf("internal nodes = %d, want 1\n%s", got, g)
	}
	if g.CoreRoot != -1 {
		t.Errorf("star should have no fat core root")
	}
	// The root is one of the star's edges and must contain the center A
	// (vertex 0); which leaf pairs with it is a symmetric choice.
	if !hypergraph.ContainsSorted(g.Bags[g.Root], 0) {
		t.Errorf("root bag %v does not contain the star center", g.Bags[g.Root])
	}
}

func TestMinimizeH2MatchesFigure2T1(t *testing.T) {
	h := hypergraph.ExampleH2()
	// The heuristic construction is schedule-dependent but always valid.
	base, err := Construct(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	// The width minimizer must recover T1 of Figure 2: rooted at (A,B,C)
	// with leaves (B,D), (C,F), (A,B,E) — a single internal node, so
	// y(H2) = 1.
	g, err := Minimize(h)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.InternalNodes(); got != 1 {
		t.Errorf("internal nodes = %d, want 1 (Figure 2 T1)\n%s", got, g)
	}
	if !reflect.DeepEqual(g.Bags[g.Root], h.Edge(0)) {
		t.Errorf("root bag = %v, want edge R(A,B,C) = %v", g.Bags[g.Root], h.Edge(0))
	}
}

func TestFigure2T2HasTwoInternalNodes(t *testing.T) {
	// Build T2 of Figure 2 by hand: (A,B,C) root with children (C,F) and
	// (A,B,E); (B,D) hangs under (A,B,E). Both T1 and T2 are valid
	// GYO-GHDs; T2 has 2 internal nodes, witnessing that y minimizes.
	h := hypergraph.ExampleH2()
	g := &GHD{
		H:        h,
		Bags:     [][]int{h.Edge(0), h.Edge(2), h.Edge(3), h.Edge(1)},
		Labels:   [][]int{{0}, {2}, {3}, {1}},
		Parent:   []int{-1, 0, 0, 2},
		Root:     0,
		NodeOf:   []int{0, 3, 1, 2},
		CoreRoot: -1,
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("T2 should be valid: %v", err)
	}
	if got := g.InternalNodes(); got != 2 {
		t.Errorf("T2 internal nodes = %d, want 2", got)
	}
}

func TestWidthValues(t *testing.T) {
	cases := []struct {
		name string
		h    *hypergraph.Hypergraph
		want int
	}{
		{"H0 self-loops", hypergraph.ExampleH0(), 1},
		{"H1 star", hypergraph.ExampleH1(), 1},
		{"H2", hypergraph.ExampleH2(), 1},
		{"H3", hypergraph.ExampleH3(), 2},
		{"single edge", func() *hypergraph.Hypergraph {
			h := hypergraph.New(2)
			h.AddEdge(0, 1)
			return h
		}(), 0},
		{"P4 path 3 edges", hypergraph.PathGraph(4), 1},
		{"P5 path 4 edges", hypergraph.PathGraph(5), 2},
		{"C5 cycle", hypergraph.CycleGraph(5), 1},
		{"K4 clique", hypergraph.CliqueGraph(4), 1},
		{"star k=7", hypergraph.StarGraph(7), 1},
	}
	for _, c := range cases {
		got, err := Width(c.h)
		if err != nil {
			t.Errorf("Width(%s): %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("y(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestWidthH3MatchesAppendixC2(t *testing.T) {
	// Appendix C.2 exhibits GYO-GHDs of H3 with two and with three
	// internal nodes; the two-internal-node one is optimal for the
	// family (the pendant path B—G—H forces a second internal node).
	g, err := Minimize(hypergraph.ExampleH3())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.InternalNodes(); got != 2 {
		t.Errorf("y(H3) = %d, want 2\n%s", got, g)
	}
	if g.CoreRoot == -1 {
		t.Error("H3 has a cyclic core; fat root expected")
	}
}

func TestMDTransformFlattensStarChain(t *testing.T) {
	// A deliberately bad GHD of the star H1: a chain
	// (A,B) — (A,C) — (A,D) — (A,E) with 3 internal nodes. MDTransform
	// re-attaches every node to the topmost ancestor containing A,
	// recovering the 1-internal-node star.
	h := hypergraph.ExampleH1()
	g := &GHD{
		H:        h,
		Bags:     [][]int{h.Edge(0), h.Edge(1), h.Edge(2), h.Edge(3)},
		Labels:   [][]int{{0}, {1}, {2}, {3}},
		Parent:   []int{-1, 0, 1, 2},
		Root:     0,
		NodeOf:   []int{0, 1, 2, 3},
		CoreRoot: -1,
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("chain GHD should be valid: %v", err)
	}
	if got := g.InternalNodes(); got != 3 {
		t.Fatalf("chain internal = %d, want 3", got)
	}
	md := MDTransform(g)
	if err := md.Validate(); err != nil {
		t.Fatalf("MD-GHD invalid: %v", err)
	}
	if got := md.InternalNodes(); got != 1 {
		t.Errorf("MD-GHD internal = %d, want 1\n%s", got, md)
	}
}

func TestValidateDetectsRIPViolation(t *testing.T) {
	// (A,B) root; (B,C) and (C,D) both children of root: vertex C's
	// holders are disconnected.
	b := hypergraph.NewBuilder()
	b.Edge("A", "B")
	b.Edge("B", "C")
	b.Edge("C", "D")
	h := b.Build()
	g := &GHD{
		H:        h,
		Bags:     [][]int{h.Edge(0), h.Edge(1), h.Edge(2)},
		Labels:   [][]int{{0}, {1}, {2}},
		Parent:   []int{-1, 0, 0},
		Root:     0,
		NodeOf:   []int{0, 1, 2},
		CoreRoot: -1,
	}
	if err := g.Validate(); err == nil {
		t.Error("expected RIP violation, got valid")
	}
}

func TestValidateDetectsMissingEdge(t *testing.T) {
	h := hypergraph.ExampleH1()
	g := &GHD{
		H:        h,
		Bags:     [][]int{h.Edge(0)},
		Labels:   [][]int{{0}},
		Parent:   []int{-1},
		Root:     0,
		NodeOf:   []int{0, 0, 0, 0},
		CoreRoot: -1,
	}
	if err := g.Validate(); err == nil {
		t.Error("expected coverage violation, got valid")
	}
}

// TestValidateRejectsTwoEdgesOnOneNode: every node carries at most one
// factor. A hand-built GHD that designates one node for two parallel
// edges is invalid, while Construct and Minimize give each its own node.
func TestValidateRejectsTwoEdgesOnOneNode(t *testing.T) {
	b := hypergraph.NewBuilder()
	b.Edge("A", "B")
	b.Edge("A", "B")
	b.Edge("B", "C")
	h := b.Build()
	g := &GHD{
		H:        h,
		Bags:     [][]int{h.Edge(0), h.Edge(2)},
		Labels:   [][]int{{0, 1}, {2}},
		Parent:   []int{-1, 0},
		Root:     0,
		NodeOf:   []int{0, 0, 1},
		CoreRoot: -1,
	}
	if err := g.Validate(); err == nil {
		t.Error("two edges designated to one node: got valid")
	}
	for _, build := range []func(*hypergraph.Hypergraph) (*GHD, error){Construct, Minimize} {
		built, err := build(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := built.Validate(); err != nil || built.NodeOf[0] == built.NodeOf[1] {
			t.Errorf("parallel edges on nodes %d and %d: %v", built.NodeOf[0], built.NodeOf[1], err)
		}
	}
}

func TestPostOrderChildrenBeforeParents(t *testing.T) {
	h := hypergraph.ExampleH3()
	g, err := Construct(h)
	if err != nil {
		t.Fatal(err)
	}
	order := g.PostOrder()
	if len(order) != g.NumNodes() {
		t.Fatalf("post-order has %d nodes, want %d", len(order), g.NumNodes())
	}
	pos := make(map[int]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	for v, p := range g.Parent {
		if p >= 0 && pos[v] > pos[p] {
			t.Errorf("node %d appears after its parent %d", v, p)
		}
	}
	if order[len(order)-1] != g.Root {
		t.Errorf("post-order must end at the root")
	}
}

func TestConstructDisconnectedForest(t *testing.T) {
	// Two disjoint binary edges: the GHD needs a fat root joining the
	// two trees into a single decomposition tree.
	h := hypergraph.New(4)
	h.AddEdge(0, 1)
	h.AddEdge(2, 3)
	g, err := Construct(h)
	if err != nil {
		t.Fatal(err)
	}
	if g.CoreRoot == -1 {
		t.Error("disconnected forest should get a fat root")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConstructErrorsOnEdgeless(t *testing.T) {
	if _, err := Construct(hypergraph.New(3)); err == nil {
		t.Error("expected error for edgeless hypergraph")
	}
}

// TestRandomForestGHDInvariants property-tests that Construct always
// yields a valid GHD and Minimize never does worse, over random tree
// queries (the paper's constant-degeneracy regime).
func TestRandomForestGHDInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 3 + r.Intn(7)
		h := hypergraph.New(n)
		for v := 1; v < n; v++ {
			h.AddEdge(r.Intn(v), v) // random tree
		}
		base, err := Construct(h)
		if err != nil {
			t.Fatalf("Construct: %v on %v", err, h)
		}
		if err := base.Validate(); err != nil {
			t.Fatalf("base invalid: %v\n%s", err, base)
		}
		best, err := Minimize(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := best.Validate(); err != nil {
			t.Fatalf("minimized invalid: %v", err)
		}
		if best.InternalNodes() > base.InternalNodes() {
			t.Errorf("Minimize (%d) worse than Construct (%d) on %v",
				best.InternalNodes(), base.InternalNodes(), h)
		}
	}
}

// TestRandomCyclicGHDInvariants extends the invariants to hypergraphs
// with cyclic cores and arity-3 edges.
func TestRandomCyclicGHDInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(5)
		h := hypergraph.New(n)
		// A cycle core plus pendant edges, some arity-3.
		for i := 0; i < n; i++ {
			h.AddEdge(i, (i+1)%n)
		}
		extra := r.Intn(3)
		for i := 0; i < extra; i++ {
			a, b, c := r.Intn(n), r.Intn(n), r.Intn(n)
			if a != b && b != c && a != c {
				h.AddEdge(a, b, c)
			}
		}
		g, err := Minimize(h)
		if err != nil {
			t.Fatalf("Minimize: %v on %v", err, h)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("invalid: %v\n%s", err, g)
		}
	}
}

func TestMDTransformPreservesValidity(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(6)
		h := hypergraph.New(n)
		for v := 1; v < n; v++ {
			h.AddEdge(r.Intn(v), v)
		}
		g, err := Construct(h)
		if err != nil {
			t.Fatal(err)
		}
		md := MDTransform(g)
		if err := md.Validate(); err != nil {
			t.Fatalf("MDTransform broke validity: %v\nbefore:\n%s\nafter:\n%s", err, g, md)
		}
		if md.InternalNodes() > g.InternalNodes() {
			t.Errorf("MDTransform increased internal nodes: %d -> %d",
				g.InternalNodes(), md.InternalNodes())
		}
	}
}

func TestDepth(t *testing.T) {
	h := hypergraph.ExampleH1()
	g, err := Construct(h)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Depth(); got != 1 {
		t.Errorf("star GHD depth = %d, want 1", got)
	}
}
