// Package topology models the communication networks G = (V, E) of
// Model 2.1: synchronous point-to-point topologies over which FAQ
// protocols are scheduled. It provides the topology families used in the
// paper's examples (lines, cliques, stars, trees, grids, the MPC
// topologies of Appendix A) and the graph primitives (BFS, diameter,
// connectivity) the protocols and bounds need.
package topology

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..N()-1. Edges are
// indexed densely in insertion order; protocols address channel capacity
// per edge index.
type Graph struct {
	n     int
	adj   [][]int
	edges [][2]int
	index map[[2]int]int
}

// NewGraph returns an edgeless graph on n vertices.
func NewGraph(n int) *Graph {
	if n < 0 {
		//faqlint:allow nopanic(programmer-error precondition: topologies are constructed from static shapes)
		panic(fmt.Sprintf("topology: negative vertex count %d", n))
	}
	return &Graph{n: n, adj: make([][]int, n), index: make(map[[2]int]int)}
}

// AddEdge inserts the undirected edge {u, v} and returns its index.
// Self-loops and duplicate edges are programmer errors and panic (the
// paper's topologies are simple graphs; private channels are unique).
func (g *Graph) AddEdge(u, v int) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		//faqlint:allow nopanic(programmer-error precondition: edge endpoints are validated at construction)
		panic(fmt.Sprintf("topology: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if u == v {
		//faqlint:allow nopanic(programmer-error precondition: self-loops are a construction bug)
		panic(fmt.Sprintf("topology: self-loop at %d", u))
	}
	if u > v {
		u, v = v, u
	}
	k := [2]int{u, v}
	if _, dup := g.index[k]; dup {
		//faqlint:allow nopanic(programmer-error precondition: duplicate edges are a construction bug)
		panic(fmt.Sprintf("topology: duplicate edge (%d,%d)", u, v))
	}
	id := len(g.edges)
	g.edges = append(g.edges, k)
	g.index[k] = id
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	return id
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Adj returns the neighbors of v; callers must not modify it.
func (g *Graph) Adj(v int) []int { return g.adj[v] }

// Edge returns the endpoints (u < v) of edge id.
func (g *Graph) Edge(id int) (int, int) { return g.edges[id][0], g.edges[id][1] }

// EdgeID returns the index of edge {u, v} and whether it exists.
func (g *Graph) EdgeID(u, v int) (int, bool) {
	if u > v {
		u, v = v, u
	}
	id, ok := g.index[[2]int{u, v}]
	return id, ok
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// BFS returns hop distances from src (-1 for unreachable), optionally
// restricted to edges for which allowed returns true.
func (g *Graph) BFS(src int, allowed func(edgeID int) bool) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] != -1 {
				continue
			}
			if allowed != nil {
				id, _ := g.EdgeID(u, v)
				if !allowed(id) {
					continue
				}
			}
			dist[v] = dist[u] + 1
			queue = append(queue, v)
		}
	}
	return dist
}

// ShortestPath returns a shortest u-v path as a vertex sequence, or nil
// if disconnected.
func (g *Graph) ShortestPath(u, v int, allowed func(edgeID int) bool) []int {
	if u == v {
		return []int{u}
	}
	prev := make([]int, g.n)
	for i := range prev {
		prev[i] = -1
	}
	prev[u] = u
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range g.adj[x] {
			if prev[y] != -1 {
				continue
			}
			if allowed != nil {
				id, _ := g.EdgeID(x, y)
				if !allowed(id) {
					continue
				}
			}
			prev[y] = x
			if y == v {
				var path []int
				for c := v; c != u; c = prev[c] {
					path = append(path, c)
				}
				path = append(path, u)
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, y)
		}
	}
	return nil
}

// ConnectsAll reports whether every vertex of K is reachable from the
// first one.
func (g *Graph) ConnectsAll(K []int) bool {
	if len(K) <= 1 {
		return true
	}
	d := g.BFS(K[0], nil)
	for _, v := range K[1:] {
		if d[v] == -1 {
			return false
		}
	}
	return true
}

// String renders the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("G{n=%d, m=%d}", g.n, g.M())
}

// Line returns the path topology P₀—P₁—...—P_{n-1} (G₁ of Figure 1).
func Line(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Clique returns the complete topology Kₙ (G₂ of Figure 1).
func Clique(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// Star returns a star with center 0 and n-1 leaves.
func Star(n int) *Graph {
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

// Ring returns the cycle topology Cₙ (n ≥ 3).
func Ring(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// Grid returns the rows×cols grid topology, a sensor-network-like fabric.
func Grid(rows, cols int) *Graph {
	g := NewGraph(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	return g
}

// RandomTree returns a uniformly-attached random tree on n vertices.
func RandomTree(n int, r *rand.Rand) *Graph {
	g := NewGraph(n)
	for v := 1; v < n; v++ {
		g.AddEdge(r.Intn(v), v)
	}
	return g
}

// RandomConnected returns a random tree plus extra random edges (deduped).
//
//faqlint:allow deadexport(the random topology of the flow, protocol and netsim test suites)
func RandomConnected(n, extra int, r *rand.Rand) *Graph {
	g := RandomTree(n, r)
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if _, ok := g.EdgeID(u, v); ok {
			continue
		}
		g.AddEdge(u, v)
	}
	return g
}

// MPC0 returns the MPC(0) topology G′ of Model A.1: k player nodes
// (0..k-1), each connected to every node of a p-clique (k..k+p-1), with
// no edges among players. Players returns the player set K.
func MPC0(k, p int) (g *Graph, players []int) {
	g = NewGraph(k + p)
	for i := 0; i < k; i++ {
		players = append(players, i)
		for j := 0; j < p; j++ {
			g.AddEdge(i, k+j)
		}
	}
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			g.AddEdge(k+a, k+b)
		}
	}
	return g, players
}

// SortedUnique sorts and deduplicates a vertex set in place, returning it.
func SortedUnique(vs []int) []int {
	sort.Ints(vs)
	out := vs[:0]
	prev := -1
	for _, v := range vs {
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}
