// Package ghd implements Generalized Hypertree Decompositions (GHDs,
// Definition 2.4 of "Topology Dependent Bounds For FAQs"), the GYO-GHD
// family of Construction 2.8, the paper's new width notion — the
// internal-node-width y(H) (Definition 2.9) — and the MD-GHD transform of
// Construction F.6 used by the hypergraph lower bounds.
//
// Minimize computes y(H) exactly by searching internal-node sets, not
// trees: a set I is realisable iff every node outside I has a cover in I
// (a member holding every vertex it shares) and the bags of I admit a
// join tree, which a maximum-weight spanning tree decides (the lemma is
// proved at minimizeExact). Nodes nothing else covers are forced into I,
// and supersets of the forced set are tried smallest first, so a tree of
// binary edges takes one candidate. MaxExactCandidates bounds the sets
// tried; past it Minimize keeps the Construction 2.8 heuristic, an upper
// bound on y(H).
package ghd

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hypergraph"
)

// GHD is a rooted generalized hypertree decomposition of a hypergraph.
// Node 0..len(Bags)-1 are tree nodes; Parent[v] is the parent node or -1
// for the root. Bags[v] is χ(v) (sorted vertex ids); Labels[v] is λ(v)
// (edge indices of H). NodeOf maps each hyperedge index to the unique
// node v with χ(v) = vertices(e) (the reduced-GHD property); for the
// optional fat core root of Construction 2.8, CoreRoot is its node index,
// or -1 when the decomposition has no core node.
type GHD struct {
	H        *hypergraph.Hypergraph
	Bags     [][]int
	Labels   [][]int
	Parent   []int
	Root     int
	NodeOf   []int // edge index -> node index
	CoreRoot int   // node index of the fat core root, or -1
}

// NumNodes returns the number of tree nodes.
func (g *GHD) NumNodes() int { return len(g.Bags) }

// Children returns the child lists of every node.
func (g *GHD) Children() [][]int {
	ch := make([][]int, len(g.Parent))
	for v, p := range g.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], v)
		}
	}
	return ch
}

// InternalNodes returns y(T): the number of non-leaf nodes of the rooted
// tree (Definition 2.9). A single-node tree has zero internal nodes.
func (g *GHD) InternalNodes() int {
	ch := g.Children()
	y := 0
	for v := range ch {
		if len(ch[v]) > 0 {
			y++
		}
	}
	return y
}

// Depth returns the maximum root-to-leaf distance.
func (g *GHD) Depth() int {
	ch := g.Children()
	var dfs func(v int) int
	dfs = func(v int) int {
		d := 0
		for _, c := range ch[v] {
			if cd := dfs(c) + 1; cd > d {
				d = cd
			}
		}
		return d
	}
	return dfs(g.Root)
}

// Validate checks that g is a well-formed GHD of g.H per Definition 2.4:
// the tree is a single rooted tree; every hyperedge e has a node v with
// e ⊆ χ(v) and e ∈ λ(v); and the running intersection property holds
// (for every vertex, the nodes whose bags contain it form a connected
// subtree). It also checks the reduced-GHD property via NodeOf: each
// hyperedge's designated node has a bag exactly equal to the edge, and
// no node is designated for two edges, so every node carries at most
// one factor (two parallel edges get two nodes with equal bags).
func (g *GHD) Validate() error {
	n := g.NumNodes()
	if n == 0 {
		return fmt.Errorf("ghd: empty decomposition")
	}
	if g.Root < 0 || g.Root >= n {
		return fmt.Errorf("ghd: root %d out of range", g.Root)
	}
	if len(g.Parent) != n || len(g.Labels) != n {
		return fmt.Errorf("ghd: inconsistent node arrays")
	}
	// Single rooted tree: exactly one root, all nodes reach it.
	for v, p := range g.Parent {
		if p == -1 && v != g.Root {
			return fmt.Errorf("ghd: node %d has no parent but is not the root", v)
		}
		if p == v {
			return fmt.Errorf("ghd: node %d is its own parent", v)
		}
	}
	for v := range g.Parent {
		seen := map[int]bool{}
		for u := v; u != -1; u = g.Parent[u] {
			if seen[u] {
				return fmt.Errorf("ghd: parent cycle at node %d", v)
			}
			seen[u] = true
		}
		if !seen[g.Root] {
			return fmt.Errorf("ghd: node %d not connected to root", v)
		}
	}
	// Coverage + reduced property.
	if len(g.NodeOf) != g.H.NumEdges() {
		return fmt.Errorf("ghd: NodeOf has %d entries for %d edges", len(g.NodeOf), g.H.NumEdges())
	}
	edgeAt := make([]int, n) // node -> 1 + its designated edge, 0 if none
	for e := 0; e < g.H.NumEdges(); e++ {
		v := g.NodeOf[e]
		if v < 0 || v >= n {
			return fmt.Errorf("ghd: edge %d mapped to invalid node %d", e, v)
		}
		if edgeAt[v] != 0 {
			return fmt.Errorf("ghd: node %d designated for edges %d and %d (one factor per node)", v, edgeAt[v]-1, e)
		}
		edgeAt[v] = e + 1
		ev := g.H.Edge(e)
		if !equalInts(g.Bags[v], ev) {
			return fmt.Errorf("ghd: node %d bag %v != edge %d vertices %v (reduced property)",
				v, g.Bags[v], e, ev)
		}
		found := false
		for _, le := range g.Labels[v] {
			if le == e {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("ghd: edge %d missing from λ of its node %d", e, v)
		}
	}
	// Running intersection property.
	for x := 0; x < g.H.NumVertices(); x++ {
		var holders []int
		for v := 0; v < n; v++ {
			if hypergraph.ContainsSorted(g.Bags[v], x) {
				holders = append(holders, v)
			}
		}
		if len(holders) <= 1 {
			continue
		}
		if !connectedInTree(g.Parent, holders) {
			return fmt.Errorf("ghd: RIP violated for vertex %d (%s): holders %v not connected",
				x, g.H.VertexName(x), holders)
		}
	}
	return nil
}

// connectedInTree reports whether the node set forms a connected subtree
// of the rooted tree given by parent pointers.
func connectedInTree(parent []int, nodes []int) bool {
	in := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		in[v] = true
	}
	// The set is connected iff every node except the unique top-most one
	// has its parent in the set. Find depth of each node.
	depth := func(v int) int {
		d := 0
		for u := parent[v]; u != -1; u = parent[u] {
			d++
		}
		return d
	}
	top, topDepth := nodes[0], depth(nodes[0])
	for _, v := range nodes[1:] {
		if d := depth(v); d < topDepth {
			top, topDepth = v, d
		}
	}
	for _, v := range nodes {
		if v != top && !in[parent[v]] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders the decomposition as an indented tree.
func (g *GHD) String() string {
	var sb strings.Builder
	ch := g.Children()
	var walk func(v, indent int)
	walk = func(v, indent int) {
		sb.WriteString(strings.Repeat("  ", indent))
		names := make([]string, len(g.Bags[v]))
		for i, x := range g.Bags[v] {
			names[i] = g.H.VertexName(x)
		}
		tag := ""
		if v == g.CoreRoot {
			tag = " [core]"
		}
		fmt.Fprintf(&sb, "(%s)%s\n", strings.Join(names, ","), tag)
		for _, c := range ch[v] {
			walk(c, indent+1)
		}
	}
	walk(g.Root, 0)
	return sb.String()
}

// ReRoot returns a copy of g rooted at the given node. The running
// intersection property is a property of the unrooted tree, so re-rooting
// preserves validity; only the direction of the bottom-up pass (and hence
// the internal node count) changes.
func (g *GHD) ReRoot(newRoot int) *GHD {
	out := &GHD{
		H:        g.H,
		Bags:     g.Bags,
		Labels:   g.Labels,
		Parent:   make([]int, len(g.Parent)),
		Root:     newRoot,
		NodeOf:   g.NodeOf,
		CoreRoot: g.CoreRoot,
	}
	adj := make([][]int, g.NumNodes())
	for v, p := range g.Parent {
		if p >= 0 {
			adj[v] = append(adj[v], p)
			adj[p] = append(adj[p], v)
		}
	}
	orient(out.Parent, adj, newRoot)
	return out
}

// orient fills parent with the tree adj rooted at root by BFS (-1 for the
// root and for nodes it does not reach) and returns the number reached.
func orient(parent []int, adj [][]int, root int) int {
	for i := range parent {
		parent[i] = -1
	}
	visited := make([]bool, len(adj))
	visited[root] = true
	queue := []int{root}
	for i := 0; i < len(queue); i++ {
		for _, v := range adj[queue[i]] {
			if !visited[v] {
				visited[v] = true
				parent[v] = queue[i]
				queue = append(queue, v)
			}
		}
	}
	return len(queue)
}

// Relabel transports g onto an isomorphic hypergraph h: varTo maps each
// of g's vertex ids to its id in h (a bijection on the vertices used),
// and edgeTo maps each of g's hyperedge indices to the matching edge
// index of h (edgeTo[e] must have exactly the varTo-image of g's edge e
// as its vertex set). The tree shape is unchanged; bags and labels are
// rewritten, and bags re-sorted under the new ids.
//
// This is the plan-cache binding step: a compiled decomposition lives
// over the canonical (renaming-invariant) hypergraph, and Relabel
// instantiates it for a request's concrete variable ids in O(plan size)
// — no re-derivation. Validity is preserved because the running
// intersection property and the reduced-GHD property are invariant under
// hypergraph isomorphism; callers wanting the guarantee checked can run
// Validate on the result.
func (g *GHD) Relabel(h *hypergraph.Hypergraph, varTo map[int]int, edgeTo []int) (*GHD, error) {
	if len(edgeTo) != g.H.NumEdges() {
		return nil, fmt.Errorf("ghd: edge map has %d entries for %d edges", len(edgeTo), g.H.NumEdges())
	}
	out := &GHD{
		H:        h,
		Bags:     make([][]int, len(g.Bags)),
		Labels:   make([][]int, len(g.Labels)),
		Parent:   append([]int(nil), g.Parent...),
		Root:     g.Root,
		NodeOf:   make([]int, h.NumEdges()),
		CoreRoot: g.CoreRoot,
	}
	for v, bag := range g.Bags {
		nb := make([]int, len(bag))
		for i, x := range bag {
			nx, ok := varTo[x]
			if !ok {
				return nil, fmt.Errorf("ghd: vertex %d missing from relabel map", x)
			}
			nb[i] = nx
		}
		sort.Ints(nb)
		out.Bags[v] = nb
	}
	for v, label := range g.Labels {
		nl := make([]int, len(label))
		for i, e := range label {
			nl[i] = edgeTo[e]
		}
		sort.Ints(nl)
		out.Labels[v] = nl
	}
	for i := range out.NodeOf {
		out.NodeOf[i] = -1
	}
	for e, v := range g.NodeOf {
		ne := edgeTo[e]
		if ne < 0 || ne >= h.NumEdges() || out.NodeOf[ne] != -1 {
			return nil, fmt.Errorf("ghd: edge map entry %d -> %d is out of range or not injective", e, ne)
		}
		out.NodeOf[ne] = v
	}
	return out, nil
}

// PostOrder returns the nodes in post-order (children before parents),
// the traversal order of the bottom-up star protocols (Lemma 4.1) and the
// centralized GHD solver (Theorem G.3).
func (g *GHD) PostOrder() []int {
	ch := g.Children()
	for _, c := range ch {
		sort.Ints(c)
	}
	var out []int
	var walk func(v int)
	walk = func(v int) {
		for _, c := range ch[v] {
			walk(c)
		}
		out = append(out, v)
	}
	walk(g.Root)
	return out
}
