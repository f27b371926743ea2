package hypergraph

import (
	"fmt"
	"sort"
)

// GYOStepKind distinguishes the two reduction rules of the GYO algorithm
// (Definition 2.6).
type GYOStepKind int

const (
	// EliminateVertex removes a vertex contained in exactly one edge
	// (rule (a)).
	EliminateVertex GYOStepKind = iota
	// DeleteEdge removes an edge contained in another edge (rule (b)).
	DeleteEdge
)

// GYOStep records one application of a GYO rule, for tracing.
type GYOStep struct {
	Kind   GYOStepKind
	Vertex int // for EliminateVertex: the eliminated vertex
	Edge   int // the edge operated on
	Into   int // for DeleteEdge: the subsuming edge, or -1
}

// String renders a step for diagnostics.
func (s GYOStep) String() string {
	if s.Kind == EliminateVertex {
		return fmt.Sprintf("eliminate v%d from e%d", s.Vertex, s.Edge)
	}
	return fmt.Sprintf("delete e%d ⊆ e%d", s.Edge, s.Into)
}

// GYOResult is the outcome of running the GYO algorithm on a hypergraph.
//
// The removed edges form a forest of acyclic hypergraphs (Lemma 4.8 of
// Koutris's notes, cited as [40] in the paper): Parent[e] is the edge that
// subsumed e at its removal, which may itself have been removed later
// (forming the forest), may belong to the leftover reduction H′, or may be
// -1 when e was the final edge of a fully acyclic component.
type GYOResult struct {
	// RemovedOrder lists removed edge indices in removal order.
	RemovedOrder []int
	// Parent maps each edge index to the subsuming edge, or -1. Entries
	// for edges in CoreEdges are -1.
	Parent []int
	// CoreEdges lists the edges of the GYO-reduction H′ (leftover edges),
	// in index order.
	CoreEdges []int
	// Steps is the full trace.
	Steps []GYOStep
}

// RunGYO executes the GYO algorithm (GYOA, Definition 2.6) on h and
// returns the reduction trace. The algorithm repeatedly (a) eliminates a
// vertex present in only one active edge and (b) deletes an active edge
// whose (current, possibly shrunken) vertex set is contained in another
// active edge, until neither rule applies. Rule application order is
// deterministic: the lowest-numbered applicable vertex/edge is used, which
// makes traces reproducible.
func RunGYO(h *Hypergraph) *GYOResult {
	m := h.NumEdges()
	active := make([]bool, m)
	cur := make([][]int, m)
	for i := range cur {
		active[i] = true
		cur[i] = append([]int(nil), h.edges[i]...)
	}
	res := &GYOResult{Parent: make([]int, m)}
	for i := range res.Parent {
		res.Parent[i] = -1
	}

	deg := make([]int, h.n) // active-edge degree per vertex
	for i, e := range cur {
		_ = i
		for _, v := range e {
			deg[v]++
		}
	}

	removeEdge := func(e, into int) {
		active[e] = false
		for _, v := range cur[e] {
			deg[v]--
		}
		res.RemovedOrder = append(res.RemovedOrder, e)
		res.Parent[e] = into
		res.Steps = append(res.Steps, GYOStep{Kind: DeleteEdge, Edge: e, Into: into})
	}

	for {
		progressed := false
		// Rule (a): eliminate a degree-1 vertex.
		for v := 0; v < h.n; v++ {
			if deg[v] != 1 {
				continue
			}
			for e := 0; e < m; e++ {
				if !active[e] || !containsSorted(cur[e], v) {
					continue
				}
				cur[e] = DiffSorted(cur[e], []int{v})
				deg[v] = 0
				res.Steps = append(res.Steps, GYOStep{Kind: EliminateVertex, Vertex: v, Edge: e})
				progressed = true
				break
			}
			if progressed {
				break
			}
		}
		if progressed {
			continue
		}
		// Rule (b): delete a subsumed edge. An edge whose current set has
		// drained to empty carries no constraints and is removed with
		// witness -1 (this is how a fully acyclic component finishes);
		// tying it to an arbitrary other edge would fabricate join-tree
		// attachments across unrelated components.
		for e := 0; e < m && !progressed; e++ {
			if !active[e] {
				continue
			}
			if len(cur[e]) == 0 {
				removeEdge(e, -1)
				progressed = true
				break
			}
			for f := 0; f < m; f++ {
				if f == e || !active[f] {
					continue
				}
				if subsetSorted(cur[e], cur[f]) {
					removeEdge(e, f)
					progressed = true
					break
				}
			}
		}
		if !progressed {
			break
		}
	}

	for e := 0; e < m; e++ {
		if active[e] {
			res.CoreEdges = append(res.CoreEdges, e)
		}
	}
	sort.Ints(res.CoreEdges)
	return res
}

// IsAcyclic reports whether h is α-acyclic (Definition 2.5): the GYO
// reduction leaves no edges.
func IsAcyclic(h *Hypergraph) bool {
	return len(RunGYO(h).CoreEdges) == 0
}

// Decomposition is the core/forest split of Definition 2.7: W(H) is the
// forest of hyperedges removed by GYOA; C(H) is the union of the
// GYO-reduction H′ and the root edge of each tree of the forest.
type Decomposition struct {
	H *Hypergraph
	// GYO is the reduction trace the decomposition was derived from. Its
	// Parent witnesses drive the join-tree (GYO-GHD) construction.
	GYO *GYOResult
	// Core lists the edge indices of the GYO-reduction H′.
	Core []int
	// Trees lists the forest trees. Each tree's edges were removed by
	// GYOA; Root is the tree's root edge (which the paper places in
	// C(H)).
	Trees []ForestTree
	// CoreVertices is V(C(H)): the sorted union of the original vertex
	// sets of Core edges and tree-root edges. n₂(H) = len(CoreVertices)
	// when Core is nonempty.
	CoreVertices []int
}

// ForestTree is one acyclic tree of the removed-edge forest. Parent maps
// a tree edge to its parent edge within the tree; the Root's parent is
// outside the tree (a core edge or nothing).
type ForestTree struct {
	Root   int
	Edges  []int       // all edges of the tree, including Root
	Parent map[int]int // within-tree parent; Root absent
}

// Decompose runs GYOA on h and assembles the core/forest decomposition.
func Decompose(h *Hypergraph) *Decomposition {
	res := RunGYO(h)
	return decomposeFrom(h, res)
}

func decomposeFrom(h *Hypergraph, res *GYOResult) *Decomposition {
	d := &Decomposition{H: h, GYO: res, Core: append([]int(nil), res.CoreEdges...)}
	// Group removed edges into trees: two removed edges belong to the
	// same pendant tree when their original vertex sets intersect
	// (transitively). Appendix C.2 groups e5, e6, e7 with e4 this way and
	// roots the tree at e4, the member removed last — the edge whose
	// reduction finally collapsed into the core.
	removed := res.RemovedOrder
	parentDSU := make(map[int]int, len(removed))
	var find func(int) int
	find = func(x int) int {
		for parentDSU[x] != x {
			parentDSU[x] = parentDSU[parentDSU[x]]
			x = parentDSU[x]
		}
		return x
	}
	for _, e := range removed {
		parentDSU[e] = e
	}
	for i, e := range removed {
		for _, f := range removed[i+1:] {
			if len(IntersectSorted(h.edges[e], h.edges[f])) > 0 {
				re, rf := find(e), find(f)
				if re != rf {
					parentDSU[re] = rf
				}
			}
		}
	}
	groups := make(map[int][]int)
	for _, e := range removed {
		groups[find(e)] = append(groups[find(e)], e)
	}
	// The GYO removal schedule is nondeterministic; "the root" of a
	// pendant tree is pinned down instead as the member edge whose
	// original vertex set overlaps the GYO-reduction H′ the most — the
	// tree's attachment to the core (Appendix C.2 roots H₃'s tree at
	// e4 = (A,B,E), the member meeting the core in {A,B}). Ties break to
	// the lowest edge index.
	//
	// Only EXIT edges — members whose subsumption witness lies outside
	// the tree (a core edge, or nothing) — are root candidates: the
	// GYO-GHD construction attaches removed edges under their witnesses,
	// so exits are exactly the edges that end up adjacent to the fat
	// root, and V(C(H)) absorbs the root's vertex set, which the running
	// intersection property then needs next to the fat root. (A
	// non-exit root would sit buried mid-chain while its vertices sat in
	// χ(r′), making the construction invalid — previously reachable via
	// empty-core disconnected forests, where every core overlap is 0 and
	// the plain lowest-index tie-break could pick a mid-chain member.)
	coreVerts := h.VerticesOf(res.CoreEdges)
	inTree := make(map[int]map[int]bool, len(groups))
	for g, members := range groups {
		set := make(map[int]bool, len(members))
		for _, e := range members {
			set[e] = true
		}
		inTree[g] = set
	}
	for g, members := range groups {
		sort.Ints(members)
		root, best := -1, -1
		for _, e := range members {
			if w := res.Parent[e]; w != -1 && inTree[g][w] {
				continue // witness inside the tree: not an exit
			}
			if ov := len(IntersectSorted(h.edges[e], coreVerts)); ov > best {
				root, best = e, ov
			}
		}
		t := ForestTree{Root: root, Parent: make(map[int]int)}
		t.Edges = append([]int(nil), members...)
		sort.Ints(t.Edges)
		// Within-tree parents: BFS from the root over shared-vertex
		// adjacency among tree members. The resulting tree is the shape
		// the GYO-GHD construction and the forest protocol traverse.
		placed := map[int]bool{root: true}
		queue := []int{root}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range t.Edges {
				if placed[e] {
					continue
				}
				if len(IntersectSorted(h.edges[cur], h.edges[e])) > 0 {
					t.Parent[e] = cur
					placed[e] = true
					queue = append(queue, e)
				}
			}
		}
		d.Trees = append(d.Trees, t)
	}
	sort.Slice(d.Trees, func(i, j int) bool { return d.Trees[i].Root < d.Trees[j].Root })

	coreLike := append([]int(nil), d.Core...)
	for _, t := range d.Trees {
		coreLike = append(coreLike, t.Root)
	}
	d.CoreVertices = h.VerticesOf(coreLike)
	return d
}

// CoreIsEmpty reports whether the GYO-reduction H′ is empty, i.e. h is
// acyclic. In that case the general protocol degenerates to the pure
// forest protocol of Lemma 4.1 and the τ_MCF core term vanishes.
func (d *Decomposition) CoreIsEmpty() bool { return len(d.Core) == 0 }

// N2 returns n₂(H) = |V(C(H))| (Definition 3.1). For acyclic H the core
// term of the paper's bounds is absent (Lemma 4.1 has no τ_MCF term), so
// N2 returns 0 when the GYO-reduction is empty.
func (d *Decomposition) N2() int {
	if d.CoreIsEmpty() {
		return 0
	}
	return len(d.CoreVertices)
}

// Degeneracy returns the degeneracy d of h (Definition 3.3): the smallest
// d such that every subhypergraph has a vertex of degree at most d.
// It is computed by the standard min-degree peeling: repeatedly remove a
// minimum-degree vertex together with all incident edges; the answer is
// the maximum degree seen at removal time. For simple graphs this is the
// usual graph degeneracy (trees: 1, cycles: 2, cliques: k-1).
func Degeneracy(h *Hypergraph) int {
	n := h.n
	m := h.NumEdges()
	alive := make([]bool, n)
	edgeAlive := make([]bool, m)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = true
	}
	for i, e := range h.edges {
		edgeAlive[i] = true
		for _, v := range e {
			deg[v]++
		}
	}
	// Only vertices that appear in at least one edge matter; isolated
	// vertices have degree 0 and never raise the degeneracy.
	d := 0
	for removed := 0; removed < n; removed++ {
		best, bestDeg := -1, int(^uint(0)>>1)
		for v := 0; v < n; v++ {
			if alive[v] && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		if best == -1 {
			break
		}
		if bestDeg > d {
			d = bestDeg
		}
		alive[best] = false
		for _, ei := range h.IncidentEdges(best) {
			if !edgeAlive[ei] {
				continue
			}
			edgeAlive[ei] = false
			for _, u := range h.edges[ei] {
				if alive[u] {
					deg[u]--
				}
			}
		}
	}
	return d
}
