package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Connected reports whether g is connected (vacuously true for n ≤ 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	d := g.BFS(0, nil)
	for _, x := range d {
		if x == -1 {
			return false
		}
	}
	return true
}

// Diameter returns the largest finite pairwise distance (0 for n ≤ 1);
// it errors on disconnected graphs.
func (g *Graph) Diameter() (int, error) {
	if !g.Connected() {
		return 0, fmt.Errorf("topology: diameter of disconnected graph")
	}
	max := 0
	for v := 0; v < g.n; v++ {
		for _, d := range g.BFS(v, nil) {
			if d > max {
				max = d
			}
		}
	}
	return max, nil
}

func TestLine(t *testing.T) {
	g := Line(4)
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("Line(4): n=%d m=%d", g.N(), g.M())
	}
	d, err := g.Diameter()
	if err != nil || d != 3 {
		t.Errorf("diameter = %d (%v), want 3", d, err)
	}
	if deg := g.Degree(0); deg != 1 {
		t.Errorf("deg(0) = %d, want 1", deg)
	}
	if deg := g.Degree(1); deg != 2 {
		t.Errorf("deg(1) = %d, want 2", deg)
	}
}

func TestClique(t *testing.T) {
	g := Clique(5)
	if g.M() != 10 {
		t.Fatalf("K5 has %d edges, want 10", g.M())
	}
	d, _ := g.Diameter()
	if d != 1 {
		t.Errorf("K5 diameter = %d, want 1", d)
	}
}

func TestStarRingGrid(t *testing.T) {
	if g := Star(6); g.M() != 5 || g.Degree(0) != 5 {
		t.Error("Star(6) malformed")
	}
	if g := Ring(5); g.M() != 5 || g.Degree(2) != 2 {
		t.Error("Ring(5) malformed")
	}
	g := Grid(3, 4)
	if g.N() != 12 || g.M() != 3*3+2*4 {
		t.Errorf("Grid(3,4): n=%d m=%d, want 12, 17", g.N(), g.M())
	}
	d, _ := g.Diameter()
	if d != 5 {
		t.Errorf("Grid(3,4) diameter = %d, want 5", d)
	}
}

func TestShortestPath(t *testing.T) {
	g := Line(5)
	p := g.ShortestPath(0, 4, nil)
	if !reflect.DeepEqual(p, []int{0, 1, 2, 3, 4}) {
		t.Errorf("path = %v", p)
	}
	if p := g.ShortestPath(2, 2, nil); !reflect.DeepEqual(p, []int{2}) {
		t.Errorf("trivial path = %v", p)
	}
	// Restricted: cut the middle edge.
	blockID, _ := g.EdgeID(2, 3)
	p = g.ShortestPath(0, 4, func(id int) bool { return id != blockID })
	if p != nil {
		t.Errorf("expected nil path across cut, got %v", p)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	for name, f := range map[string]func(){
		"self-loop": func() { g.AddEdge(1, 1) },
		"duplicate": func() { g.AddEdge(1, 0) },
		"range":     func() { g.AddEdge(0, 9) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		})
	}
}

func TestMPC0Topology(t *testing.T) {
	g, players := MPC0(4, 3)
	if g.N() != 7 {
		t.Fatalf("n = %d, want 7", g.N())
	}
	if len(players) != 4 {
		t.Fatalf("players = %v", players)
	}
	// No player-player edges.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if _, ok := g.EdgeID(i, j); ok {
				t.Errorf("unexpected player edge (%d,%d)", i, j)
			}
		}
	}
	// Every player connects to every hub; the hub set is a clique.
	if g.M() != 4*3+3 {
		t.Errorf("m = %d, want 15", g.M())
	}
}

func TestConnectivity(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	if g.ConnectsAll([]int{0, 2}) {
		t.Error("ConnectsAll over components")
	}
	if !g.ConnectsAll([]int{0, 1}) {
		t.Error("ConnectsAll within component")
	}
	if _, err := g.Diameter(); err == nil {
		t.Error("expected diameter error on disconnected graph")
	}
}

func TestRandomConnected(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		g := RandomConnected(2+r.Intn(20), r.Intn(10), r)
		if !g.Connected() {
			t.Fatal("RandomConnected produced a disconnected graph")
		}
	}
}

func TestSortedUnique(t *testing.T) {
	got := SortedUnique([]int{3, 1, 3, 2, 1})
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("SortedUnique = %v", got)
	}
}
