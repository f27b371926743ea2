package ghd

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hypergraph"
)

// The Prüfer walk below is the exhaustive search Minimize used before the
// internal-node-set search replaced it: every labeled tree over the
// search nodes (m^(m−2) of them), built and validated. It stays as the
// test oracle for shapes with at most oracleMaxNodes search nodes.

const oracleMaxNodes = 7

// pruferMinimize is Minimize as it was with the Prüfer walk: the
// construction heuristic, its MD transform if strictly better, and the
// walk's result if strictly better still.
func pruferMinimize(t testing.TB, h *hypergraph.Hypergraph, walk *GHD) *GHD {
	t.Helper()
	best, err := Construct(h)
	if err != nil {
		t.Fatal(err)
	}
	if md := MDTransform(best); md.InternalNodes() < best.InternalNodes() && md.Validate() == nil {
		best = md
	}
	if walk != nil && walk.InternalNodes() < best.InternalNodes() {
		best = walk
	}
	return best
}

// searchNodes is the number of free tree nodes the Prüfer walk ranges
// over: h's edges when h is connected and acyclic, else the fat root plus
// the removed edges.
func searchNodes(h *hypergraph.Hypergraph) int {
	d := hypergraph.Decompose(h)
	if !needsFatRoot(d) {
		return h.NumEdges()
	}
	n := 1
	for _, t := range d.Trees {
		n += len(t.Edges)
	}
	return n
}

func pruferExact(h *hypergraph.Hypergraph) *GHD {
	d := hypergraph.Decompose(h)
	var best *GHD
	keep := func(g *GHD) {
		if g != nil && (best == nil || g.InternalNodes() < best.InternalNodes()) {
			best = g
		}
	}
	if !needsFatRoot(d) {
		forEachLabeledTree(h.NumEdges(), func(adj [][]int) { keep(ghdFromEdgeTree(h, adj)) })
		return best
	}
	var removedEdges []int
	for _, t := range d.Trees {
		removedEdges = append(removedEdges, t.Edges...)
	}
	forEachLabeledTree(len(removedEdges)+1, func(adj [][]int) {
		keep(ghdFromFatRootTree(h, d, removedEdges, adj))
	})
	return best
}

// forEachLabeledTree enumerates all labeled trees on m nodes via Prüfer
// sequences and invokes fn with each tree's adjacency list. m = 1 yields
// the single-node tree; m = 2 the single edge.
func forEachLabeledTree(m int, fn func(adj [][]int)) {
	switch {
	case m <= 0:
		return
	case m == 1:
		fn(make([][]int, 1))
		return
	case m == 2:
		fn([][]int{{1}, {0}})
		return
	}
	seq := make([]int, m-2)
	for {
		fn(pruferDecode(seq, m))
		// Increment the sequence like an odometer base m.
		i := len(seq) - 1
		for ; i >= 0; i-- {
			seq[i]++
			if seq[i] < m {
				break
			}
			seq[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// pruferDecode converts a Prüfer sequence into the adjacency list of the
// corresponding labeled tree on m nodes.
func pruferDecode(seq []int, m int) [][]int {
	deg := make([]int, m)
	for i := range deg {
		deg[i] = 1
	}
	for _, x := range seq {
		deg[x]++
	}
	adj := make([][]int, m)
	addEdge := func(a, b int) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	used := make([]bool, m)
	for _, x := range seq {
		leaf := -1
		for v := 0; v < m; v++ {
			if deg[v] == 1 && !used[v] {
				leaf = v
				break
			}
		}
		addEdge(leaf, x)
		used[leaf] = true
		deg[x]--
	}
	a, b := -1, -1
	for v := 0; v < m; v++ {
		if deg[v] == 1 && !used[v] {
			if a == -1 {
				a = v
			} else {
				b = v
			}
		}
	}
	addEdge(a, b)
	return adj
}

// ghdFromEdgeTree builds a reduced-GHD whose node i carries hyperedge i,
// with tree shape adj, rooted to minimize internal nodes; returns nil if
// the shape violates the GHD properties.
func ghdFromEdgeTree(h *hypergraph.Hypergraph, adj [][]int) *GHD {
	m := h.NumEdges()
	// Root at a maximum-degree node: internal nodes of a rooted tree =
	// (#nodes with degree ≥ 2) + (1 if the root is a leaf), so rooting
	// at an internal vertex is optimal.
	root := 0
	for v := 1; v < m; v++ {
		if len(adj[v]) > len(adj[root]) {
			root = v
		}
	}
	g := &GHD{H: h, CoreRoot: -1, Root: root}
	g.Bags = make([][]int, m)
	g.Labels = make([][]int, m)
	g.Parent = make([]int, m)
	g.NodeOf = make([]int, m)
	for e := 0; e < m; e++ {
		g.Bags[e] = append([]int(nil), h.Edge(e)...)
		g.Labels[e] = []int{e}
		g.NodeOf[e] = e
	}
	orient(g.Parent, adj, root)
	if g.Validate() != nil {
		return nil
	}
	return g
}

// ghdFromFatRootTree builds a Construction 2.8 GHD with the fat root as
// tree node 0 and removedEdges[i-1] as tree node i, with core edges
// attached as leaves of the root; returns nil when invalid.
func ghdFromFatRootTree(h *hypergraph.Hypergraph, d *hypergraph.Decomposition, removedEdges []int, adj [][]int) *GHD {
	m := len(removedEdges)
	total := 1 + m + len(d.Core)
	g := &GHD{H: h, CoreRoot: 0, Root: 0}
	g.Bags = make([][]int, total)
	g.Labels = make([][]int, total)
	g.Parent = make([]int, total)
	g.NodeOf = make([]int, h.NumEdges())
	for i := range g.NodeOf {
		g.NodeOf[i] = -1
	}
	g.Bags[0] = append([]int(nil), d.CoreVertices...)
	g.Labels[0] = append([]int(nil), d.Core...)
	for i, e := range removedEdges {
		v := 1 + i
		g.Bags[v] = append([]int(nil), h.Edge(e)...)
		g.Labels[v] = []int{e}
		g.NodeOf[e] = v
	}
	for i, e := range d.Core {
		v := 1 + m + i
		g.Bags[v] = append([]int(nil), h.Edge(e)...)
		g.Labels[v] = []int{e}
		g.NodeOf[e] = v
		g.Parent[v] = 0
	}
	// Orient the enumerated tree away from node 0 (= r′).
	if orient(g.Parent[:m+1], adj, 0) != m+1 {
		return nil
	}
	if g.Validate() != nil {
		return nil
	}
	return g
}

// checkMinimize is the differential property: Minimize returns a valid
// GHD; within oracleMaxNodes search nodes it has the Prüfer oracle's
// internal-node count and is the heuristic's GHD whenever the heuristic
// is optimal; beyond, it is never worse than the heuristic. The search
// run without the heuristic's bound must match the oracle's exhaustive
// walk too — the heuristic is optimal on most fat-root shapes, so only
// this exercises that branch finding its optimum.
func checkMinimize(t *testing.T, h *hypergraph.Hypergraph) {
	t.Helper()
	heur, err := Construct(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Minimize(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Minimize invalid on %v: %v\n%s", h, err, got)
	}
	if got.InternalNodes() > heur.InternalNodes() {
		t.Fatalf("Minimize y=%d worse than the heuristic's %d on %v", got.InternalNodes(), heur.InternalNodes(), h)
	}
	if searchNodes(h) > oracleMaxNodes {
		return
	}
	exact, walk := minimizeExact(h, hypergraph.Decompose(h), math.MaxInt), pruferExact(h)
	if exact == nil || exact.Validate() != nil || exact.InternalNodes() != walk.InternalNodes() {
		t.Fatalf("unbounded search returned\n%v\nthe Prüfer walk's optimum is y=%d on %v", exact, walk.InternalNodes(), h)
	}
	want := pruferMinimize(t, h, walk)
	if got.InternalNodes() != want.InternalNodes() {
		t.Fatalf("y=%d, Prüfer oracle y=%d on %v\ngot:\n%s\noracle:\n%s", got.InternalNodes(), want.InternalNodes(), h, got, want)
	}
	if heur.InternalNodes() == want.InternalNodes() && !reflect.DeepEqual(got, heur) {
		t.Fatalf("heuristic is optimal on %v but Minimize returned another GHD\ngot:\n%s\nheuristic:\n%s", h, got, heur)
	}
}

// growAcyclic appends m edges to edges, each sharing with one earlier
// edge a random subset of its vertices (all of them: a duplicate; none: a
// new component) plus fresh vertices up to maxArity — a join-tree
// construction, so the result stays acyclic apart from any core the
// caller put first. It returns the new edge list and vertex count.
func growAcyclic(r *rand.Rand, edges [][]int, nv, m, maxArity int) ([][]int, int) {
	for i := 0; i < m; i++ {
		var e []int
		if len(edges) > 0 {
			p := edges[r.Intn(len(edges))]
			for _, x := range p {
				if r.Intn(3) > 0 && len(e) < maxArity {
					e = append(e, x)
				}
			}
		}
		for fresh := r.Intn(maxArity + 1); len(e) == 0 || (fresh > 0 && len(e) < maxArity); fresh-- {
			e = append(e, nv)
			nv++
		}
		edges = append(edges, e)
	}
	return edges, nv
}

func buildHypergraph(nv int, edges [][]int) *hypergraph.Hypergraph {
	h := hypergraph.New(nv)
	for _, e := range edges {
		h.AddEdge(e...)
	}
	return h
}

// oracleShapes draws the differential test's shape families: binary
// trees, arity-3 acyclic hypergraphs with nested and duplicate edges,
// forests (a fat root over an empty core), and cyclic cores with
// pendants — each with at most oracleMaxNodes search nodes.
func oracleShapes(r *rand.Rand, perFamily int) map[string][]*hypergraph.Hypergraph {
	out := map[string][]*hypergraph.Hypergraph{}
	for len(out["binary-tree"]) < perFamily {
		m := 1 + r.Intn(oracleMaxNodes)
		h := hypergraph.New(m + 1)
		for v := 1; v <= m; v++ {
			h.AddEdge(r.Intn(v), v)
		}
		out["binary-tree"] = append(out["binary-tree"], h)
	}
	for len(out["acyclic-arity3"]) < perFamily || len(out["forest"]) < perFamily {
		edges, nv := growAcyclic(r, nil, 0, 1+r.Intn(oracleMaxNodes), 3)
		h := buildHypergraph(nv, edges)
		fam := "acyclic-arity3"
		if needsFatRoot(hypergraph.Decompose(h)) {
			fam = "forest"
		}
		if searchNodes(h) <= oracleMaxNodes && len(out[fam]) < perFamily {
			out[fam] = append(out[fam], h)
		}
	}
	for len(out["cyclic-core"]) < perFamily {
		k := 3 + r.Intn(3)
		var core [][]int
		for i := 0; i < k; i++ {
			core = append(core, []int{i, (i + 1) % k})
		}
		edges, nv := growAcyclic(r, core, k, r.Intn(oracleMaxNodes), 1+r.Intn(3))
		if h := buildHypergraph(nv, edges); searchNodes(h) <= oracleMaxNodes {
			out["cyclic-core"] = append(out["cyclic-core"], h)
		}
	}
	return out
}

// TestMinimizeMatchesPruferOracle is the differential test of the
// internal-node-set search against the exhaustive Prüfer walk.
func TestMinimizeMatchesPruferOracle(t *testing.T) {
	shapes := oracleShapes(rand.New(rand.NewSource(2121)), 40)
	for _, fam := range []string{"binary-tree", "acyclic-arity3", "forest", "cyclic-core"} {
		for _, h := range shapes[fam] {
			t.Run(fam, func(t *testing.T) { checkMinimize(t, h) })
		}
	}
}

// FuzzMinimize runs the same property on arbitrary hypergraphs over
// eight vertices: each input byte is one edge's vertex bitmask.
func FuzzMinimize(f *testing.F) {
	for _, seed := range [][]byte{
		{0x03, 0x05, 0x09, 0x11, 0x21, 0x41}, // star
		{0x03, 0x06, 0x0c, 0x18, 0x30, 0x60}, // path
		{0x03, 0x06, 0x05, 0x0c, 0x30},       // triangle, pendant, disjoint edge
		{0x07, 0x07, 0x03, 0x1c, 0x18},       // duplicate and nested arity-3 edges
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var edges [][]int
		for _, b := range data[:min(len(data), 12)] {
			var e []int
			for x := 0; x < 8; x++ {
				if b&(1<<x) != 0 {
					e = append(e, x)
				}
			}
			if len(e) > 0 {
				edges = append(edges, e)
			}
		}
		if len(edges) == 0 {
			return
		}
		checkMinimize(t, buildHypergraph(8, edges))
	})
}
