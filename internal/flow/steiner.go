package flow

import (
	"fmt"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/topology"
)

// SteinerTree is a tree (edge-index set plus vertex list) connecting a
// terminal set inside a topology.
type SteinerTree struct {
	Edges []int
	// Root is a designated terminal (protocols converge-cast toward it).
	Root int
}

// buildSteinerTree grows a Steiner tree over the terminals using the
// shortest-path heuristic (connect the nearest unreached terminal to the
// current tree), restricted to allowed edges. Returns nil when the
// terminals cannot be connected.
func buildSteinerTree(g *topology.Graph, terminals []int, allowed []bool, order []int) *SteinerTree {
	if len(terminals) == 0 {
		return nil
	}
	inTree := make([]bool, g.N())
	t := &SteinerTree{Root: terminals[0]}
	inTree[terminals[0]] = true
	remaining := map[int]bool{}
	for _, k := range terminals[1:] {
		if k != terminals[0] {
			remaining[k] = true
		}
	}
	allowFn := func(id int) bool { return allowed == nil || allowed[id] }
	for len(remaining) > 0 {
		// Multi-source BFS from the current tree to the nearest
		// remaining terminal.
		prev := make([]int, g.N())
		for i := range prev {
			prev[i] = -1
		}
		var queue []int
		for v := 0; v < g.N(); v++ {
			if inTree[v] {
				prev[v] = v
				queue = append(queue, v)
			}
		}
		found := -1
		for len(queue) > 0 && found == -1 {
			u := queue[0]
			queue = queue[1:]
			neighbors := g.Adj(u)
			for _, oi := range order {
				if oi >= len(neighbors) {
					continue
				}
				v := neighbors[oi]
				if prev[v] != -1 {
					continue
				}
				id, _ := g.EdgeID(u, v)
				if !allowFn(id) {
					continue
				}
				prev[v] = u
				if remaining[v] {
					found = v
					break
				}
				queue = append(queue, v)
			}
		}
		if found == -1 {
			return nil
		}
		for v := found; !inTree[v]; v = prev[v] {
			inTree[v] = true
			id, _ := g.EdgeID(v, prev[v])
			t.Edges = append(t.Edges, id)
		}
		delete(remaining, found)
	}
	return t
}

// TerminalDiameter returns the largest hop distance between two
// terminals within the tree.
func (t *SteinerTree) TerminalDiameter(g *topology.Graph, terminals []int) int {
	in := make(map[int]bool, len(t.Edges))
	for _, e := range t.Edges {
		in[e] = true
	}
	allowed := func(id int) bool { return in[id] }
	max := 0
	for _, a := range terminals {
		d := g.BFS(a, allowed)
		for _, b := range terminals {
			if d[b] > max {
				max = d[b]
			}
		}
	}
	return max
}

// PackSteinerTrees computes a large set of edge-disjoint Steiner trees
// for K in g, each with terminal diameter at most delta — the packing
// ST(G, K, Δ) of Definition 3.9. Exact maximum packing is NP-hard; this
// uses the exact zigzag Hamiltonian-path decomposition on cliques (the
// paper's Example 2.3 and the two-path packing W₁, W₂ of Figure 2) and a
// randomized greedy elsewhere, which meets Theorem 3.10's
// ST = Ω(MinCut) guarantee on the topology families used in the paper
// (asserted in tests).
func PackSteinerTrees(g *topology.Graph, K []int, delta int) []*SteinerTree {
	if len(K) < 2 {
		return nil
	}
	if trees := cliquePacking(g, K, delta); trees != nil {
		return trees
	}
	return greedyPacking(g, K, delta)
}

// cliquePacking decomposes a complete topology into ⌊n/2⌋ edge-disjoint
// Hamiltonian paths (zigzag / Walecki construction); each path spans all
// vertices and therefore is a Steiner tree for any K.
func cliquePacking(g *topology.Graph, K []int, delta int) []*SteinerTree {
	n := g.N()
	if n < 3 || g.M() != n*(n-1)/2 {
		return nil
	}
	if delta < n-1 {
		// A Hamiltonian path may stretch terminals up to n-1 apart; let
		// the greedy handle tighter diameter demands.
		return nil
	}
	var paths [][]int
	if n%2 == 0 {
		for j := 0; j < n/2; j++ {
			paths = append(paths, zigzag(j, n, n))
		}
	} else {
		m := (n - 1) / 2
		for j := 0; j < m; j++ {
			paths = append(paths, append([]int{n - 1}, zigzag(j, n-1, n-1)...))
		}
	}
	var trees []*SteinerTree
	for _, p := range paths {
		t := &SteinerTree{Root: K[0]}
		for i := 0; i+1 < len(p); i++ {
			id, ok := g.EdgeID(p[i], p[i+1])
			if !ok {
				return nil
			}
			t.Edges = append(t.Edges, id)
		}
		trees = append(trees, t)
	}
	return trees
}

// zigzag returns the sequence j, j+1, j-1, j+2, j-2, ... of length n
// modulo mod — one path of the classic Hamiltonian decomposition of
// even complete graphs.
func zigzag(j, n, mod int) []int {
	out := make([]int, n)
	out[0] = j % mod
	for i := 1; i < n; i++ {
		var off int
		if i%2 == 1 {
			off = (i + 1) / 2
		} else {
			off = -i / 2
		}
		out[i] = ((j+off)%mod + mod) % mod
	}
	return out
}

// greedyPacking repeatedly carves diameter-bounded Steiner trees out of
// the remaining edges, trying several deterministic-seeded neighbor
// orders per round before giving up.
func greedyPacking(g *topology.Graph, K []int, delta int) []*SteinerTree {
	allowed := make([]bool, g.M())
	for i := range allowed {
		allowed[i] = true
	}
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	baseOrder := make([]int, maxDeg)
	for i := range baseOrder {
		baseOrder[i] = i
	}
	rng := rand.New(rand.NewSource(1))
	var trees []*SteinerTree
	for {
		var found *SteinerTree
		for attempt := 0; attempt < 8; attempt++ {
			order := append([]int(nil), baseOrder...)
			if attempt > 0 {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			t := buildSteinerTree(g, K, allowed, order)
			if t == nil {
				continue
			}
			if t.TerminalDiameter(g, K) <= delta {
				found = t
				break
			}
		}
		if found == nil {
			return trees
		}
		for _, e := range found.Edges {
			allowed[e] = false
		}
		trees = append(trees, found)
	}
}

// BestDelta minimizes the set-intersection round bound of Theorem 3.11,
// min over Δ of (units/ST(G,K,Δ) + Δ), over the sensible Δ range
// [1, |V|]. It returns the chosen Δ, the packing, and the bound value.
// units is the number of per-edge-per-round payload units to aggregate
// (N tuples in the paper's normalization).
//
// The per-candidate packings dominate star setup on dense topologies and
// are independent pure reads of the immutable topology (greedyPacking
// seeds a private rand.Source per call), so the sweep shards across the
// exec pool — the same discipline as the protocol layer's MaxFlow
// sharding. Selection stays a sequential scan in candidate order with a
// strict < tie-break, so the chosen Δ and packing are identical at every
// worker count.
func BestDelta(g *topology.Graph, K []int, units int) (int, []*SteinerTree, int, error) {
	if len(K) < 2 {
		return 0, nil, 0, fmt.Errorf("flow: BestDelta needs ≥ 2 players")
	}
	if !g.ConnectsAll(K) {
		return 0, nil, 0, fmt.Errorf("flow: players %v not connected", K)
	}
	// Candidate deltas: every value for small topologies; powers of two
	// plus |V| for large ones (within a factor 2 of the true min).
	var candidates []int
	if g.N() <= 64 {
		for d := 1; d <= g.N(); d++ {
			candidates = append(candidates, d)
		}
	} else {
		for d := 1; d < g.N(); d *= 2 {
			candidates = append(candidates, d)
		}
		candidates = append(candidates, g.N())
	}
	packings := make([][]*SteinerTree, len(candidates))
	exec.Default().Map(len(candidates), func(i int) {
		packings[i] = PackSteinerTrees(g, K, candidates[i])
	})
	bestDelta, bestVal := -1, 0
	var bestTrees []*SteinerTree
	for i, d := range candidates {
		trees := packings[i]
		if len(trees) == 0 {
			continue
		}
		val := ceilDiv(units, len(trees)) + d
		if bestDelta == -1 || val < bestVal {
			bestDelta, bestVal, bestTrees = d, val, trees
		}
	}
	if bestDelta == -1 {
		return 0, nil, 0, fmt.Errorf("flow: no Steiner tree connects %v", K)
	}
	return bestDelta, bestTrees, bestVal, nil
}
