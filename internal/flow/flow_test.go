package flow

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

func TestMaxFlowLine(t *testing.T) {
	g := topology.Line(5)
	r, err := MaxFlow(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 1 {
		t.Errorf("flow = %d, want 1", r.Value)
	}
	if len(r.Paths) != 1 || len(r.Paths[0]) != 5 {
		t.Errorf("paths = %v", r.Paths)
	}
}

func TestMaxFlowClique(t *testing.T) {
	g := topology.Clique(4)
	r, err := MaxFlow(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 3 {
		t.Errorf("flow K4 = %d, want 3", r.Value)
	}
	checkPathsValid(t, g, r, 0, 3)
}

func TestMaxFlowGrid(t *testing.T) {
	g := topology.Grid(3, 3)
	r, err := MaxFlow(g, 0, 8) // opposite corners, both degree 2
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 2 {
		t.Errorf("flow grid corners = %d, want 2", r.Value)
	}
	checkPathsValid(t, g, r, 0, 8)
}

func checkPathsValid(t *testing.T, g *topology.Graph, r *Result, s, dst int) {
	t.Helper()
	used := map[int]bool{}
	for _, p := range r.Paths {
		if p[0] != s || p[len(p)-1] != dst {
			t.Fatalf("path %v does not run %d->%d", p, s, dst)
		}
		for i := 0; i+1 < len(p); i++ {
			id, ok := g.EdgeID(p[i], p[i+1])
			if !ok {
				t.Fatalf("path %v uses non-edge (%d,%d)", p, p[i], p[i+1])
			}
			if used[id] {
				t.Fatalf("paths not edge-disjoint at edge %d", id)
			}
			used[id] = true
		}
	}
}

func TestMaxFlowErrors(t *testing.T) {
	g := topology.Line(3)
	if _, err := MaxFlow(g, 1, 1); err == nil {
		t.Error("expected error for s == t")
	}
	if _, err := MaxFlow(g, 0, 9); err == nil {
		t.Error("expected error for out-of-range endpoint")
	}
}

func TestMinCutSeparating(t *testing.T) {
	cases := []struct {
		name string
		g    *topology.Graph
		K    []int
		want int
	}{
		{"line ends", topology.Line(4), []int{0, 3}, 1},
		{"line all", topology.Line(4), []int{0, 1, 2, 3}, 1},
		{"clique4", topology.Clique(4), []int{0, 1, 2, 3}, 3},
		{"ring", topology.Ring(6), []int{0, 3}, 2},
		{"grid corners", topology.Grid(3, 3), []int{0, 8}, 2},
	}
	for _, c := range cases {
		got, side, err := MinCutSeparating(c.g, c.K)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("MinCut(%s) = %d, want %d", c.name, got, c.want)
		}
		// The side must split K.
		inA, inB := false, false
		for _, k := range c.K {
			if side[k] {
				inA = true
			} else {
				inB = true
			}
		}
		if !inA || !inB {
			t.Errorf("%s: cut side does not separate K", c.name)
		}
	}
}

func TestMinCutErrors(t *testing.T) {
	g := topology.Line(3)
	if _, _, err := MinCutSeparating(g, []int{0}); err == nil {
		t.Error("expected error for |K| < 2")
	}
	h := topology.NewGraph(4)
	h.AddEdge(0, 1)
	h.AddEdge(2, 3)
	if _, _, err := MinCutSeparating(h, []int{0, 2}); err == nil {
		t.Error("expected error for disconnected players")
	}
}

func TestCliquePackingEven(t *testing.T) {
	// K4: two edge-disjoint Hamiltonian paths — the packing behind
	// Example 2.3's N/2 + 2 round protocol (Figure 2's W1, W2).
	g := topology.Clique(4)
	K := []int{0, 1, 2, 3}
	trees := PackSteinerTrees(g, K, 3)
	if len(trees) != 2 {
		t.Fatalf("ST(K4, Δ=3) = %d, want 2", len(trees))
	}
	checkPackingValid(t, g, K, trees)
}

func TestCliquePackingOdd(t *testing.T) {
	g := topology.Clique(5)
	K := []int{0, 1, 2, 3, 4}
	trees := PackSteinerTrees(g, K, 5)
	if len(trees) != 2 {
		t.Fatalf("ST(K5) = %d, want 2", len(trees))
	}
	checkPackingValid(t, g, K, trees)
	// Each Hamiltonian path spans all 5 vertices (4 edges); the Walecki
	// cycles drop their closing edge to stay trees.
	for _, tr := range trees {
		if len(tr.Edges) != 4 {
			t.Errorf("path uses %d edges, want 4", len(tr.Edges))
		}
	}
}

func TestCliquePackingLarger(t *testing.T) {
	for _, n := range []int{6, 7, 8, 9} {
		g := topology.Clique(n)
		K := make([]int, n)
		for i := range K {
			K[i] = i
		}
		trees := PackSteinerTrees(g, K, n)
		if len(trees) != n/2 {
			t.Errorf("ST(K%d) = %d, want %d", n, len(trees), n/2)
		}
		checkPackingValid(t, g, K, trees)
	}
}

func TestLinePacking(t *testing.T) {
	g := topology.Line(5)
	K := []int{0, 2, 4}
	trees := PackSteinerTrees(g, K, 4)
	if len(trees) != 1 {
		t.Fatalf("ST(line) = %d, want 1", len(trees))
	}
	checkPackingValid(t, g, K, trees)
	if got := trees[0].TerminalDiameter(g, K); got != 4 {
		t.Errorf("terminal diameter = %d, want 4", got)
	}
}

func TestMPC0Packing(t *testing.T) {
	// Appendix A.1.4: each of the p hub nodes with its k player edges is
	// a diameter-2 Steiner tree; the packing has p trees.
	g, players := topology.MPC0(4, 3)
	trees := PackSteinerTrees(g, players, 2)
	if len(trees) != 3 {
		t.Fatalf("ST(MPC0, Δ=2) = %d, want p = 3", len(trees))
	}
	checkPackingValid(t, g, players, trees)
}

func checkPackingValid(t *testing.T, g *topology.Graph, K []int, trees []*SteinerTree) {
	t.Helper()
	used := map[int]bool{}
	for ti, tr := range trees {
		for _, e := range tr.Edges {
			if used[e] {
				t.Fatalf("tree %d reuses edge %d", ti, e)
			}
			used[e] = true
		}
		// Each tree must connect all terminals.
		in := map[int]bool{}
		for _, e := range tr.Edges {
			in[e] = true
		}
		d := g.BFS(K[0], func(id int) bool { return in[id] })
		for _, k := range K[1:] {
			if d[k] == -1 {
				t.Fatalf("tree %d does not connect terminal %d", ti, k)
			}
		}
	}
}

// TestPackingMeetsMinCutBound asserts the Theorem 3.10 guarantee
// ST(G, K, |V|) = Ω(MinCut(G, K)) — with constant 1/2 for our packer —
// on random connected topologies.
func TestPackingMeetsMinCutBound(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(8)
		g := topology.RandomConnected(n, r.Intn(2*n), r)
		var K []int
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				K = append(K, v)
			}
		}
		if len(K) < 2 {
			K = []int{0, n - 1}
		}
		mincut, _, err := MinCutSeparating(g, K)
		if err != nil {
			t.Fatal(err)
		}
		st := len(PackSteinerTrees(g, K, g.N()))
		if 2*st < mincut {
			t.Errorf("ST = %d below MinCut/2 = %d/2 on %v K=%v", st, mincut, g, K)
		}
		if st > mincut {
			t.Errorf("ST = %d exceeds MinCut = %d (impossible for valid packing)", st, mincut)
		}
	}
}

func TestTauMCFLine(t *testing.T) {
	g := topology.Line(4)
	K := []int{0, 3}
	rounds, collector, err := TauMCF(g, K, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Worst case: 100 units across the single path of length 3.
	if rounds != 103 {
		t.Errorf("τ_MCF = %d, want 103", rounds)
	}
	if collector != 0 && collector != 3 {
		t.Errorf("collector = %d, want a player", collector)
	}
}

func TestTauMCFClique(t *testing.T) {
	g := topology.Clique(4)
	K := []int{0, 1, 2, 3}
	rounds, _, err := TauMCF(g, K, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Flow 3 between any pair, distance 1: ceil(99/3) + 1 = 34.
	if rounds != 34 {
		t.Errorf("τ_MCF = %d, want 34", rounds)
	}
}

func TestTauMCFAppendixD1Bound(t *testing.T) {
	// Appendix D.1: τ_MCF(G,K,N′) is within Õ(1) of N′/MinCut(G,K) for
	// worst-case assignments; here within distance + constant factors.
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(8)
		g := topology.RandomConnected(n, r.Intn(n), r)
		K := []int{0, n - 1}
		units := 64 + r.Intn(512)
		rounds, _, err := TauMCF(g, K, units)
		if err != nil {
			t.Fatal(err)
		}
		mincut, _, err := MinCutSeparating(g, K)
		if err != nil {
			t.Fatal(err)
		}
		lower := units / mincut
		upper := units/mincut + n + units%mincut + 1
		if rounds < lower-1 || rounds > upper {
			t.Errorf("τ_MCF = %d outside [%d, %d] (mincut %d, units %d)",
				rounds, lower, upper, mincut, units)
		}
	}
}

func TestTauMCFEdgeCases(t *testing.T) {
	g := topology.Line(3)
	if _, _, err := TauMCF(g, nil, 5); err == nil {
		t.Error("expected error for empty K")
	}
	rounds, collector, err := TauMCF(g, []int{1}, 5)
	if err != nil || rounds != 0 || collector != 1 {
		t.Errorf("single player should cost 0 rounds: %d, %d, %v", rounds, collector, err)
	}
	if _, _, err := TauMCF(g, []int{0, 2}, -1); err == nil {
		t.Error("expected error for negative units")
	}
}

func TestBestDeltaExample23(t *testing.T) {
	// Example 2.3: star on the 4-clique. Two edge-disjoint Hamiltonian
	// paths let the protocol finish in N/2 + O(1) rounds.
	g := topology.Clique(4)
	K := []int{0, 1, 2, 3}
	N := 128
	delta, trees, bound, err := BestDelta(g, K, N)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Errorf("packing size = %d, want 2", len(trees))
	}
	if bound != N/2+delta {
		t.Errorf("bound = %d, want %d", bound, N/2+delta)
	}
	if bound > N/2+4 {
		t.Errorf("bound = %d too far above N/2 + 2", bound)
	}
}

func TestBestDeltaLine(t *testing.T) {
	// On a line the only packing is the single path: bound = N + Δ.
	g := topology.Line(4)
	K := []int{0, 1, 2, 3}
	N := 64
	_, trees, bound, err := BestDelta(g, K, N)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 {
		t.Errorf("packing size = %d, want 1", len(trees))
	}
	if bound != N+3 {
		t.Errorf("bound = %d, want N+3 = %d", bound, N+3)
	}
}

func TestBestDeltaErrors(t *testing.T) {
	g := topology.Line(3)
	if _, _, _, err := BestDelta(g, []int{0}, 5); err == nil {
		t.Error("expected error for singleton K")
	}
	h := topology.NewGraph(4)
	h.AddEdge(0, 1)
	h.AddEdge(2, 3)
	if _, _, _, err := BestDelta(h, []int{0, 3}, 5); err == nil {
		t.Error("expected error for disconnected players")
	}
}
