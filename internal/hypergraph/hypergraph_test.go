package hypergraph

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBuilderNamesAndEdges(t *testing.T) {
	b := NewBuilder()
	r := b.Edge("A", "B", "C")
	s := b.Edge("B", "D")
	h := b.Build()
	if h.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", h.NumVertices())
	}
	if h.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", h.NumEdges())
	}
	if got := h.Edge(r); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("edge R = %v", got)
	}
	if got := h.Edge(s); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("edge S = %v", got)
	}
	if h.VertexName(3) != "D" {
		t.Errorf("VertexName(3) = %q", h.VertexName(3))
	}
}

func TestAddEdgeDedupAndSort(t *testing.T) {
	h := New(5)
	e := h.AddEdge(3, 1, 3, 2, 1)
	if got := h.Edge(e); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("edge = %v, want [1 2 3]", got)
	}
}

func TestAddEdgePanics(t *testing.T) {
	h := New(2)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"empty", func() { h.AddEdge() }},
		{"range", func() { h.AddEdge(5) }},
		{"negative", func() { h.AddEdge(-1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.f()
		})
	}
}

func TestDegreeAndArity(t *testing.T) {
	h := ExampleH1()
	if got := h.Degree(0); got != 4 { // A in all four relations
		t.Errorf("deg(A) = %d, want 4", got)
	}
	if got := h.Degree(1); got != 1 {
		t.Errorf("deg(B) = %d, want 1", got)
	}
	if got := h.Arity(); got != 2 {
		t.Errorf("arity = %d, want 2", got)
	}
	if got := ExampleH2().Arity(); got != 3 {
		t.Errorf("arity(H2) = %d, want 3", got)
	}
}

func TestAcyclicity(t *testing.T) {
	cases := []struct {
		name string
		h    *Hypergraph
		want bool
	}{
		{"H0 self-loops", ExampleH0(), true},
		{"H1 star", ExampleH1(), true},
		{"H2", ExampleH2(), true},
		{"H3 has cyclic core", ExampleH3(), false},
		{"path", PathGraph(6), true},
		{"triangle", CycleGraph(3), false},
		{"4-cycle", CycleGraph(4), false},
		{"clique4", CliqueGraph(4), false},
	}
	for _, c := range cases {
		if got := IsAcyclic(c.h); got != c.want {
			t.Errorf("IsAcyclic(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTriangleWithCoveringEdgeIsAcyclic(t *testing.T) {
	// {A,B},{B,C},{A,C},{A,B,C}: the big edge subsumes the triangle.
	b := NewBuilder()
	b.Edge("A", "B")
	b.Edge("B", "C")
	b.Edge("A", "C")
	b.Edge("A", "B", "C")
	if !IsAcyclic(b.Build()) {
		t.Error("triangle + covering edge should be α-acyclic")
	}
}

func TestGYOTraceH3(t *testing.T) {
	// Appendix C.2: GYOA on H3 leaves core {e1, e2, e3}; the removed
	// edges {e4, e5, e6, e7} form one tree rooted at e4.
	h := ExampleH3()
	res := RunGYO(h)
	if !reflect.DeepEqual(res.CoreEdges, []int{0, 1, 2}) {
		t.Fatalf("core = %v, want [0 1 2]", res.CoreEdges)
	}
	d := Decompose(h)
	if len(d.Trees) != 1 {
		t.Fatalf("trees = %d, want 1: %+v", len(d.Trees), d.Trees)
	}
	if d.Trees[0].Root != 3 { // e4
		t.Errorf("tree root = e%d, want e3 (paper's e4)", d.Trees[0].Root)
	}
	if !reflect.DeepEqual(d.Trees[0].Edges, []int{3, 4, 5, 6}) {
		t.Errorf("tree edges = %v, want [3 4 5 6]", d.Trees[0].Edges)
	}
	// V(C(H3)) = {A,B,C,D,E} so n2 = 5.
	if got := d.N2(); got != 5 {
		t.Errorf("n2(H3) = %d, want 5", got)
	}
	if !reflect.DeepEqual(d.CoreVertices, []int{0, 1, 2, 3, 4}) {
		t.Errorf("core vertices = %v, want [0 1 2 3 4]", d.CoreVertices)
	}
}

func TestDecomposeAcyclic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		h     *Hypergraph
		trees int
	}{
		{"H1", ExampleH1(), 1},
		{"H2", ExampleH2(), 1},
		{"path", PathGraph(5), 1},
		{"two components", func() *Hypergraph {
			h := New(4)
			h.AddEdge(0, 1)
			h.AddEdge(2, 3)
			return h
		}(), 2},
	} {
		d := Decompose(tc.h)
		if !d.CoreIsEmpty() {
			t.Errorf("%s: core should be empty, got %v", tc.name, d.Core)
		}
		if d.N2() != 0 {
			t.Errorf("%s: N2 = %d, want 0 for acyclic", tc.name, d.N2())
		}
		if len(d.Trees) != tc.trees {
			t.Errorf("%s: trees = %d, want %d", tc.name, len(d.Trees), tc.trees)
		}
		total := 0
		for _, tr := range d.Trees {
			total += len(tr.Edges)
		}
		if total != tc.h.NumEdges() {
			t.Errorf("%s: forest covers %d edges, want %d", tc.name, total, tc.h.NumEdges())
		}
	}
}

func TestDecomposeCyclicCoreOnly(t *testing.T) {
	h := CycleGraph(5)
	d := Decompose(h)
	if len(d.Core) != 5 {
		t.Fatalf("cycle core = %v, want all 5 edges", d.Core)
	}
	if len(d.Trees) != 0 {
		t.Fatalf("cycle should have no forest trees, got %d", len(d.Trees))
	}
	if d.N2() != 5 {
		t.Errorf("n2(C5) = %d, want 5", d.N2())
	}
}

func TestDegeneracy(t *testing.T) {
	cases := []struct {
		name string
		h    *Hypergraph
		want int
	}{
		{"star", ExampleH1(), 1},
		{"path", PathGraph(8), 1},
		{"cycle", CycleGraph(6), 2},
		{"clique4", CliqueGraph(4), 3},
		{"clique6", CliqueGraph(6), 5},
		{"H2", ExampleH2(), 1},
	}
	for _, c := range cases {
		if got := Degeneracy(c.h); got != c.want {
			t.Errorf("Degeneracy(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestDegeneracySubgraphProperty(t *testing.T) {
	// Property (Definition 3.3): for random graphs, every induced
	// subgraph must contain a vertex of degree ≤ Degeneracy(h).
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(8)
		h := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					h.AddEdge(i, j)
				}
			}
		}
		d := Degeneracy(h)
		// Check a few random induced subgraphs.
		for s := 0; s < 10; s++ {
			keep := make([]bool, n)
			any := false
			for v := 0; v < n; v++ {
				if r.Intn(2) == 0 {
					keep[v] = true
					any = true
				}
			}
			if !any {
				continue
			}
			minDeg, hasVertex := n+1, false
			for v := 0; v < n; v++ {
				if !keep[v] {
					continue
				}
				deg := 0
				for _, ei := range h.IncidentEdges(v) {
					e := h.Edge(ei)
					all := true
					for _, u := range e {
						if !keep[u] {
							all = false
							break
						}
					}
					if all {
						deg++
					}
				}
				hasVertex = true
				if deg < minDeg {
					minDeg = deg
				}
			}
			if hasVertex && minDeg > d {
				t.Fatalf("subgraph min degree %d exceeds degeneracy %d", minDeg, d)
			}
		}
	}
}

func TestForestLevelSets(t *testing.T) {
	// Path x0-x1-x2-x3-x4: internal vertices x1,x2,x3; depths 1,2,3 from
	// root x0. Even side {x2}, odd side {x1,x3}.
	even, odd := ForestLevelSets(PathGraph(5))
	if !reflect.DeepEqual(even, []int{2}) {
		t.Errorf("even = %v, want [2]", even)
	}
	if !reflect.DeepEqual(odd, []int{1, 3}) {
		t.Errorf("odd = %v, want [1 3]", odd)
	}
	// Star: only the center has degree ≥ 2, at depth 0.
	even, odd = ForestLevelSets(StarGraph(5))
	if !reflect.DeepEqual(even, []int{0}) || len(odd) != 0 {
		t.Errorf("star level sets = %v, %v", even, odd)
	}
}

func TestShortVertexDisjointCycles(t *testing.T) {
	// Two disjoint triangles plus enough edges to push the average
	// degree over the threshold: use K4 ∪ K4 (avg degree 3).
	h := New(8)
	for _, base := range []int{0, 4} {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				h.AddEdge(base+i, base+j)
			}
		}
	}
	cycles := ShortVertexDisjointCycles(h, 4, 2.5)
	if len(cycles) < 2 {
		t.Fatalf("found %d cycles, want ≥ 2: %v", len(cycles), cycles)
	}
	used := make(map[int]bool)
	for _, c := range cycles {
		if len(c) < 3 || len(c) > 4 {
			t.Errorf("cycle length %d outside [3,4]: %v", len(c), c)
		}
		for _, v := range c {
			if used[v] {
				t.Errorf("cycles not vertex-disjoint at %d", v)
			}
			used[v] = true
		}
	}
}

func TestCycleValidity(t *testing.T) {
	// Every returned cycle must be a real closed walk in the graph.
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 6 + r.Intn(10)
		h := New(n)
		adj := make(map[[2]int]bool)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(2) == 0 {
					h.AddEdge(i, j)
					adj[[2]int{i, j}] = true
				}
			}
		}
		for _, c := range ShortVertexDisjointCycles(h, n, 1.0) {
			for i := range c {
				u, v := c[i], c[(i+1)%len(c)]
				if u > v {
					u, v = v, u
				}
				if !adj[[2]int{u, v}] {
					t.Fatalf("cycle %v uses non-edge (%d,%d)", c, u, v)
				}
			}
		}
	}
}

func TestGreedyIndependentSet(t *testing.T) {
	h := CliqueGraph(6)
	is := GreedyIndependentSet(h, nil)
	if len(is) != 1 {
		t.Errorf("IS in K6 has size %d, want 1", len(is))
	}
	h = PathGraph(7)
	is = GreedyIndependentSet(h, nil)
	if len(is) < 3 {
		t.Errorf("IS in P7 has size %d, want ≥ 3", len(is))
	}
	// Validity on random graphs, plus the Turán bound n/(d+1) where d is
	// max degree (weaker than average-degree Turán, still a guarantee
	// min-degree greedy meets).
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(10)
		h := New(n)
		edges := make(map[[2]int]bool)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					h.AddEdge(i, j)
					edges[[2]int{i, j}] = true
				}
			}
		}
		is := GreedyIndependentSet(h, nil)
		for i := 0; i < len(is); i++ {
			for j := i + 1; j < len(is); j++ {
				if edges[[2]int{is[i], is[j]}] {
					t.Fatalf("not independent: %d-%d", is[i], is[j])
				}
			}
		}
		maxDeg := 0
		for v := 0; v < n; v++ {
			if d := h.Degree(v); d > maxDeg {
				maxDeg = d
			}
		}
		if len(is)*(maxDeg+1) < n {
			t.Fatalf("greedy IS size %d below n/(Δ+1) = %d/%d", len(is), n, maxDeg+1)
		}
	}
}

func TestStrongIndependentSet(t *testing.T) {
	// In H2, vertices D and F never co-occur; A,B,C do co-occur.
	h := ExampleH2()
	sis := StrongIndependentSet(h, nil)
	if !IsStrongIndependentSet(h, sis) {
		t.Fatalf("greedy set %v is not strongly independent", sis)
	}
	if len(sis) < 2 {
		t.Errorf("strong IS size %d, want ≥ 2", len(sis))
	}
	// Theorem F.5 bound on random hypergraphs: |SIS| ≥ n/(d·(r-1)) with
	// d = degeneracy. Greedy meets the weaker max-codegree bound; we
	// assert validity plus non-triviality.
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 6 + r.Intn(8)
		h := New(n)
		for e := 0; e < n; e++ {
			k := 2 + r.Intn(2)
			vs := r.Perm(n)[:k]
			h.AddEdge(vs...)
		}
		sis := StrongIndependentSet(h, nil)
		if !IsStrongIndependentSet(h, sis) {
			t.Fatalf("invalid strong IS %v for %v", sis, h)
		}
		if len(sis) == 0 {
			t.Fatalf("empty strong IS for nonempty hypergraph")
		}
	}
}

func TestSortedSetHelpers(t *testing.T) {
	if got := IntersectSorted([]int{1, 3, 5, 7}, []int{3, 4, 5}); !reflect.DeepEqual(got, []int{3, 5}) {
		t.Errorf("IntersectSorted = %v", got)
	}
	if got := UnionSorted([]int{1, 3}, []int{2, 3, 4}); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Errorf("UnionSorted = %v", got)
	}
	if got := DiffSorted([]int{1, 2, 3, 4}, []int{2, 4}); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("DiffSorted = %v", got)
	}
	if !SubsetSorted([]int{2, 4}, []int{1, 2, 3, 4}) {
		t.Error("SubsetSorted([2 4], [1 2 3 4]) = false")
	}
	if SubsetSorted([]int{2, 5}, []int{1, 2, 3, 4}) {
		t.Error("SubsetSorted([2 5], [1 2 3 4]) = true")
	}
}

func TestIsGraphForest(t *testing.T) {
	if !IsGraphForest(PathGraph(5)) {
		t.Error("path should be a forest")
	}
	if !IsGraphForest(StarGraph(4)) {
		t.Error("star should be a forest")
	}
	if IsGraphForest(CycleGraph(4)) {
		t.Error("cycle should not be a forest")
	}
	// Parallel edges form a cycle.
	h := New(2)
	h.AddEdge(0, 1)
	h.AddEdge(0, 1)
	if IsGraphForest(h) {
		t.Error("parallel edges should not be a forest")
	}
}
