package ghd

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
)

// caterpillar returns a spine path of spine vertices with legs pendant
// edges on each spine vertex: spine−1+spine·legs binary edges.
func caterpillar(spine, legs int) *hypergraph.Hypergraph {
	h := hypergraph.New(spine * (1 + legs))
	for i := 0; i+1 < spine; i++ {
		h.AddEdge(i, i+1)
	}
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			h.AddEdge(i, spine+i*legs+l)
		}
	}
	return h
}

// binaryTreeWidth is y(H) in closed form for a tree of at least two
// binary edges: an edge whose endpoints both have degree ≥ 2 cannot be a
// leaf (no other edge covers both), and the rest hang off those — or, in
// a star, off any one edge.
func binaryTreeWidth(h *hypergraph.Hypergraph) int {
	y := 0
	for _, e := range h.Edges() {
		if h.Degree(e[0]) >= 2 && h.Degree(e[1]) >= 2 {
			y++
		}
	}
	return max(1, y)
}

// TestBinaryTreeWidthClosedForm pins y(H) on binary-edge trees far past
// the seven edges the Prüfer walk could afford; before the
// internal-node-set search, trees of eight or more edges got the
// construction heuristic's count, often above y(H).
func TestBinaryTreeWidthClosedForm(t *testing.T) {
	cases := map[string]*hypergraph.Hypergraph{
		"path40":        hypergraph.PathGraph(41),
		"star40":        hypergraph.StarGraph(40),
		"caterpillar32": caterpillar(11, 2),
	}
	r := rand.New(rand.NewSource(4040))
	for m := 2; m <= 40; m++ {
		for trial := 0; trial < 4; trial++ {
			h := hypergraph.New(m + 1)
			for v := 1; v <= m; v++ {
				h.AddEdge(r.Intn(v), v)
			}
			cases[fmt.Sprintf("tree%d_%d", m, trial)] = h
		}
	}
	for name, h := range cases {
		g, err := Minimize(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := g.InternalNodes(), binaryTreeWidth(h); got != want {
			t.Errorf("%s: y = %d, closed form %d on %v", name, got, want, h)
		}
	}
}

// BenchmarkMinimize times a plan-cache miss's width search on the
// shapes it used to walk every labeled tree for (≤ 7 search nodes) and
// on ones past that budget.
func BenchmarkMinimize(b *testing.B) {
	tree := func(spec [][2]int) *hypergraph.Hypergraph {
		h := hypergraph.New(len(spec) + 1)
		for _, e := range spec {
			h.AddEdge(e[0], e[1])
		}
		return h
	}
	triPendant := hypergraph.New(7) // a triangle with four pendant edges
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {3, 5}, {0, 6}} {
		triPendant.AddEdge(e[0], e[1])
	}
	shapes := []struct {
		name string
		h    *hypergraph.Hypergraph
	}{
		{"star7", hypergraph.StarGraph(7)},
		{"path7", hypergraph.PathGraph(8)},
		{"tree7", tree([][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}, {6, 7}})},
		{"tree8", tree([][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}, {6, 7}, {3, 8}})},
		{"caterpillar32", caterpillar(11, 2)},
		{"tri-pendant7", triPendant},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			y := 0
			for i := 0; i < b.N; i++ {
				g, err := Minimize(sh.h)
				if err != nil {
					b.Fatal(err)
				}
				y = g.InternalNodes()
			}
			b.ReportMetric(float64(y), "y")
		})
	}
}
