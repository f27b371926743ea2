package ghd

import (
	"sort"

	"repro/internal/hypergraph"
)

// MaxExactCandidates bounds the internal-node sets the exact width search
// tests. Past it Minimize returns the construction heuristic, an upper
// bound on y(H) within the O(1) factor Appendix F's tightness results need.
const MaxExactCandidates = 1 << 14

// Width returns the internal-node-width y(H) (Definition 2.9): the
// minimum number of internal nodes over GYO-GHDs of h. It is exact
// whenever the search fits MaxExactCandidates.
func Width(h *hypergraph.Hypergraph) (int, error) {
	g, err := Minimize(h)
	if err != nil {
		return 0, err
	}
	return g.InternalNodes(), nil
}

// Minimize returns a GYO-GHD of h with the fewest internal nodes: y(H)
// whenever the search fits MaxExactCandidates. It keeps the Construction
// 2.8 baseline (witness tree flattened by MDTransform) unless the exact
// search finds a strictly smaller decomposition, so wherever the
// construction is optimal its GHD is returned unchanged.
func Minimize(h *hypergraph.Hypergraph) (*GHD, error) {
	return MinimizeFrom(h, hypergraph.Decompose(h))
}

// MinimizeFrom is Minimize for a precomputed decomposition d of h, so a
// caller that needs d too (plan.Compile reads n₂(H)) runs GYO once.
func MinimizeFrom(h *hypergraph.Hypergraph, d *hypergraph.Decomposition) (*GHD, error) {
	best, err := construct(h, d)
	if err != nil {
		return nil, err
	}
	if alt := minimizeExact(h, d, best.InternalNodes()); alt != nil {
		best = alt
	}
	return best, nil
}

// minimizeExact returns a GYO-GHD of h with the fewest internal nodes if
// that is fewer than below, and nil otherwise or once MaxExactCandidates
// candidate sets have been tested.
//
// The family is Construction 2.8's. For a connected acyclic h the tree
// nodes are h's edges, any of which may be the root; otherwise the fat
// root r′ (χ(r′) = V(C(H))) is the root, core edges are its leaves, and
// the tree over r′ and the removed edges is free. Call the nodes of that
// free tree search nodes. A tree costs its internal-node set I (r′ ∈ I),
// so the search ranges over sets, not trees. For a search node e let
// need(e) = χ(e) ∩ ⋃_{f≠e} χ(f) and cover(e) = {f ≠ e : need(e) ⊆ χ(f)}.
//
// Lemma: a valid tree with internal nodes in I exists iff (1) every
// e ∉ I has cover(e) ∩ I ≠ ∅ and (2) the bags of I admit a join tree.
// Only if: the holders of a vertex are connected, and a leaf reaches the
// rest only through its parent p, so p ∈ cover(e) ∩ I; deleting leaves
// keeps every vertex's holders connected, so T[I] is a join tree. If:
// hang each e ∉ I below a member of cover(e) ∩ I; a vertex of e held
// elsewhere is in need(e), hence in e's parent, so its holders are its
// holders in I — connected in T[I] — plus leaves hanging off them.
//
// (2) needs no tree enumeration: a spanning tree over I has weight
// Σ |χ(e) ∩ χ(f)| = Σ_x (tree edges among x's h_x holders in I), each
// term at most h_x − 1 with equality iff those holders are connected. So
// I admits a join tree iff a maximum-weight spanning tree reaches
// Σ_x (h_x − 1) = Σ_{e∈I} |χ(e)| − |⋃_{e∈I} χ(e)|, and it is then one.
//
// Nodes with cover(e) = ∅ are forced into I, and supersets of the forced
// set are tried by increasing size. The first that passes both conditions
// yields a tree whose internal nodes lie in it while no smaller set
// passes: it is optimal. For trees of binary edges the forced set (edges
// whose endpoints both have degree ≥ 2) or, in a star, the first edge
// passes, so exactly one candidate is tested.
func minimizeExact(h *hypergraph.Hypergraph, d *hypergraph.Decomposition, below int) *GHD {
	s := newWidthSearch(h, d)
	nForced := len(s.bags) - len(s.optional)
	budget := MaxExactCandidates
	for size := max(1, nForced); size < below && size <= len(s.bags); size++ {
		pick := make([]int, size-nForced) // ascending indices into s.optional
		for i := range pick {
			pick[i] = i
		}
		for budget > 0 {
			budget--
			in := append(nodeSet(nil), s.forced...)
			for _, i := range pick {
				in.add(s.optional[i])
			}
			if g := s.try(in); g != nil {
				return g
			}
			// Advance pick to the next combination in lexicographic order.
			i := len(pick) - 1
			for i >= 0 && pick[i] == len(s.optional)-len(pick)+i {
				i--
			}
			if i < 0 {
				break
			}
			pick[i]++
			for j := i + 1; j < len(pick); j++ {
				pick[j] = pick[j-1] + 1
			}
		}
	}
	return nil
}

// widthSearch holds minimizeExact's search nodes. Search node v is GHD
// node v: edge v of a connected acyclic h, or else r′ (node 0, edge -1)
// then the removed edges tree by tree, with core edges after them.
type widthSearch struct {
	h        *hypergraph.Hypergraph
	d        *hypergraph.Decomposition
	fat      bool
	edges    []int   // hyperedge of each search node, -1 for r′
	bags     [][]int // χ of each search node
	cover    []nodeSet
	forced   nodeSet // r′ and every node with cover(e) = ∅
	optional []int   // the other nodes, ascending
}

func newWidthSearch(h *hypergraph.Hypergraph, d *hypergraph.Decomposition) *widthSearch {
	s := &widthSearch{h: h, d: d, fat: needsFatRoot(d)}
	add := func(e int, bag []int) {
		s.edges = append(s.edges, e)
		s.bags = append(s.bags, bag)
	}
	if s.fat {
		add(-1, d.CoreVertices)
		for _, t := range d.Trees {
			for _, e := range t.Edges {
				add(e, h.Edge(e))
			}
		}
	} else {
		for e := 0; e < h.NumEdges(); e++ {
			add(e, h.Edge(e))
		}
	}
	n := len(s.bags)
	holders := make([]int, h.NumVertices()) // core edges lie inside χ(r′)
	for _, b := range s.bags {
		for _, x := range b {
			holders[x]++
		}
	}
	s.cover, s.forced = make([]nodeSet, n), newNodeSet(n)
	for e, b := range s.bags {
		var need []int
		for _, x := range b {
			if holders[x] > 1 {
				need = append(need, x)
			}
		}
		s.cover[e] = newNodeSet(n)
		covered := false
		for f := range s.bags {
			if f != e && hypergraph.SubsetSorted(need, s.bags[f]) {
				s.cover[e].add(f)
				covered = true
			}
		}
		if covered && !(s.fat && e == 0) {
			s.optional = append(s.optional, e)
		} else {
			s.forced.add(e)
		}
	}
	return s
}

// try builds the tree for internal-node set in — a maximum-weight
// spanning tree over in (Kruskal: heaviest pairs first, ties in index
// order), every other node hung below its lowest-index cover in in,
// rooted at r′ or else at the member of highest degree — and returns it
// if it is a valid GHD, nil when condition (1) or (2) fails.
func (s *widthSearch) try(in nodeSet) *GHD {
	n := len(s.bags)
	var members []int
	slack := 0 // Σ_x (h_x − 1) minus the spanning tree's weight
	seen := make([]bool, s.h.NumVertices())
	for e := 0; e < n; e++ {
		if !in.has(e) {
			if !s.cover[e].meets(in) {
				return nil
			}
			continue
		}
		members = append(members, e)
		slack += len(s.bags[e])
		for _, x := range s.bags[e] {
			if !seen[x] {
				seen[x] = true
				slack--
			}
		}
	}
	type pair struct{ w, a, b int }
	var pairs []pair
	for i, a := range members {
		for _, b := range members[i+1:] {
			pairs = append(pairs, pair{len(hypergraph.IntersectSorted(s.bags[a], s.bags[b])), a, b})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].w > pairs[j].w })
	comp := make([]int, n) // union-find forest over members
	for i := range comp {
		comp[i] = i
	}
	find := func(x int) int {
		for comp[x] != x {
			x = comp[x]
		}
		return x
	}
	adj := make([][]int, n)
	link := func(a, b int) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, p := range pairs {
		if ra, rb := find(p.a), find(p.b); ra != rb {
			comp[ra] = rb
			slack -= p.w
			link(p.a, p.b)
		}
	}
	if slack != 0 {
		return nil
	}
	for e := 0; e < n; e++ {
		for f := 0; f < n && !in.has(e); f++ {
			if in.has(f) && s.cover[e].has(f) {
				link(e, f)
				break
			}
		}
	}
	root := members[0]
	for _, v := range members {
		if !s.fat && len(adj[v]) > len(adj[root]) {
			root = v
		}
	}
	g := &GHD{H: s.h, Parent: make([]int, n), Root: root, CoreRoot: -1, NodeOf: make([]int, s.h.NumEdges())}
	orient(g.Parent, adj, root)
	for v, e := range s.edges {
		g.Bags = append(g.Bags, append([]int(nil), s.bags[v]...))
		if e < 0 {
			g.CoreRoot = 0
			g.Labels = append(g.Labels, append([]int(nil), s.d.Core...))
			continue
		}
		g.Labels = append(g.Labels, []int{e})
		g.NodeOf[e] = v
	}
	for _, e := range s.d.Core {
		g.NodeOf[e] = len(g.Bags)
		g.Bags = append(g.Bags, append([]int(nil), s.h.Edge(e)...))
		g.Labels = append(g.Labels, []int{e})
		g.Parent = append(g.Parent, 0)
	}
	if g.Validate() != nil {
		return nil
	}
	return g
}

// nodeSet is a bitset over search nodes.
type nodeSet []uint64

func newNodeSet(n int) nodeSet   { return make(nodeSet, (n+63)/64) }
func (s nodeSet) add(i int)      { s[i/64] |= 1 << (i % 64) }
func (s nodeSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

func (s nodeSet) meets(t nodeSet) bool {
	for i := range s {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}
