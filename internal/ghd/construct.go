package ghd

import (
	"fmt"

	"repro/internal/hypergraph"
)

// Construct builds a GYO-GHD of h following Construction 2.8:
//
//   - Run GYOA and decompose h into the core C(H) and the pendant forest
//     W(H) (hypergraph.Decompose).
//   - If the core is nonempty (or the forest has several trees), create a
//     fat root r′ with χ(r′) = V(C(H)); attach one leaf node per core
//     edge and the root node of each forest tree to r′.
//   - Each forest tree contributes a reduced-GHD whose shape follows the
//     decomposition's within-tree parents.
//
// For a connected acyclic h the fat root is omitted and the result is the
// plain reduced-GHD rooted at the tree root, matching the paper's
// Figure 2 decompositions T₁/T₂ of H₂.
func Construct(h *hypergraph.Hypergraph) (*GHD, error) {
	return construct(h, hypergraph.Decompose(h))
}

// construct is Construct for a precomputed decomposition.
func construct(h *hypergraph.Hypergraph, d *hypergraph.Decomposition) (*GHD, error) {
	g, err := FromDecomposition(h, d)
	if err != nil {
		return nil, err
	}
	// Witness chains can be needlessly deep (a star query drains as a
	// chain of (A,·) edges); the MD transform (Construction F.6)
	// re-attaches nodes as high as the running intersection property
	// allows, recovering the flat star. It never increases the internal
	// node count.
	if md := MDTransform(g); md.Validate() == nil && md.InternalNodes() <= g.InternalNodes() {
		return md, nil
	}
	return g, nil
}

// FromDecomposition assembles the GYO-GHD for a precomputed
// decomposition. The result is always validated before being returned.
func FromDecomposition(h *hypergraph.Hypergraph, d *hypergraph.Decomposition) (*GHD, error) {
	if h.NumEdges() == 0 {
		return nil, fmt.Errorf("ghd: hypergraph has no edges")
	}
	g := &GHD{H: h, CoreRoot: -1, NodeOf: make([]int, h.NumEdges())}
	for i := range g.NodeOf {
		g.NodeOf[i] = -1
	}

	needFatRoot := needsFatRoot(d)
	if needFatRoot {
		g.CoreRoot = 0
		g.Root = 0
		g.Bags = append(g.Bags, append([]int(nil), d.CoreVertices...))
		g.Labels = append(g.Labels, append([]int(nil), d.Core...))
		g.Parent = append(g.Parent, -1)
	}

	addNode := func(edge, parent int) int {
		v := len(g.Bags)
		g.Bags = append(g.Bags, append([]int(nil), h.Edge(edge)...))
		g.Labels = append(g.Labels, []int{edge})
		g.Parent = append(g.Parent, parent)
		g.NodeOf[edge] = v
		return v
	}

	// Core edges become leaf children of the fat root.
	for _, e := range d.Core {
		addNode(e, g.CoreRoot)
	}

	// Removed edges hang under their GYO subsumption witness (the
	// Tarjan–Yannakakis join-tree rule): when e was deleted because its
	// reduced vertex set was contained in f, the shared vertices of e
	// with the rest of the hypergraph are exactly that reduced set, so
	// attaching e below f preserves the running intersection property.
	// Edges whose witness is a core edge (or nothing) attach to the fat
	// root — χ(r′) = V(C(H)) covers their reduced set — matching
	// Construction 2.8's "add the edge (r′, r′′)".
	inCore := make(map[int]bool, len(d.Core))
	for _, e := range d.Core {
		inCore[e] = true
	}
	// Witnesses are removed after the edges they subsume, so placing in
	// reverse removal order guarantees parents exist.
	order := d.GYO.RemovedOrder
	for i := len(order) - 1; i >= 0; i-- {
		e := order[i]
		w := d.GYO.Parent[e]
		switch {
		case w == -1 || inCore[w]:
			if needFatRoot {
				addNode(e, g.CoreRoot)
			} else {
				// The unique drained edge of a connected acyclic
				// hypergraph becomes the root.
				v := addNode(e, -1)
				g.Root = v
			}
		default:
			addNode(e, g.NodeOf[w])
		}
	}

	for e, v := range g.NodeOf {
		if v == -1 {
			return nil, fmt.Errorf("ghd: edge %d not placed (decomposition incomplete)", e)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("ghd: construction produced invalid GHD: %w", err)
	}
	return g, nil
}

// needsFatRoot reports whether Construction 2.8 puts a fat root r′ over
// d: a nonempty core, or a forest of several trees to join.
func needsFatRoot(d *hypergraph.Decomposition) bool {
	return !d.CoreIsEmpty() || len(d.Trees) > 1
}

// MDTransform applies Construction F.6 to g: for each parent-child pair
// (u, v), if a strict predecessor w of u satisfies χ(v) ∩ χ(u) ⊆ χ(w),
// re-attach v to the topmost such w. The process repeats to fixpoint and
// preserves GHD validity (the paper bounds the number of steps by
// |E(T)|·y(T), Corollary F.7). The transform tends to flatten the tree,
// raising the leaf count, and establishes the private-attribute property
// of Lemma F.3 used by the hypergraph lower bound.
func MDTransform(g *GHD) *GHD {
	out := &GHD{
		H:        g.H,
		Bags:     append([][]int(nil), g.Bags...),
		Labels:   append([][]int(nil), g.Labels...),
		Parent:   append([]int(nil), g.Parent...),
		Root:     g.Root,
		NodeOf:   append([]int(nil), g.NodeOf...),
		CoreRoot: g.CoreRoot,
	}
	changed := true
	for changed {
		changed = false
		for v := 0; v < out.NumNodes(); v++ {
			u := out.Parent[v]
			if u == -1 {
				continue
			}
			shared := hypergraph.IntersectSorted(out.Bags[v], out.Bags[u])
			// Walk ancestors of u from the top down and take the topmost
			// w whose bag covers the shared set.
			var ancestors []int
			for w := out.Parent[u]; w != -1; w = out.Parent[w] {
				ancestors = append(ancestors, w)
			}
			for i := len(ancestors) - 1; i >= 0; i-- {
				w := ancestors[i]
				if hypergraph.SubsetSorted(shared, out.Bags[w]) {
					out.Parent[v] = w
					changed = true
					break
				}
			}
		}
	}
	return out
}
