package hypergraph

import (
	"math"
	"sort"
)

// SimpleAdjacency returns, for an arity-≤2 hypergraph, the adjacency list
// of the underlying simple graph (self-loops ignored, multi-edges
// collapsed). It panics if h has arity > 2 (programmer error: callers
// gate on IsSimpleGraph).
func SimpleAdjacency(h *Hypergraph) [][]int {
	if !h.IsSimpleGraph() {
		//faqlint:allow nopanic(programmer-error precondition: SimpleAdjacency is documented for arity <= 2)
		panic("hypergraph: SimpleAdjacency requires arity ≤ 2")
	}
	seen := make(map[[2]int]bool)
	adj := make([][]int, h.n)
	for _, e := range h.edges {
		if len(e) != 2 {
			continue
		}
		u, v := e[0], e[1]
		k := [2]int{u, v}
		if seen[k] {
			continue
		}
		seen[k] = true
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for _, a := range adj {
		sort.Ints(a)
	}
	return adj
}

// IsGraphForest reports whether the underlying simple graph of an
// arity-≤2 hypergraph is a forest (no cycles among the arity-2 edges,
// counting parallel edges as a cycle).
func IsGraphForest(h *Hypergraph) bool {
	if !h.IsSimpleGraph() {
		return false
	}
	parent := make([]int, h.n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range h.edges {
		if len(e) != 2 {
			continue
		}
		ru, rv := find(e[0]), find(e[1])
		if ru == rv {
			return false
		}
		parent[ru] = rv
	}
	return true
}

// ForestLevelSets computes, for a forest simple graph, the two candidate
// sets O_L and O_R of Lemma 4.3: vertices of degree ≥ 2 at even and odd
// BFS depth from each tree's root. The lemma embeds one DISJ instance per
// vertex of the larger side, so TRIBES size m = max(|O_L|, |O_R|) ≥ y/2.
func ForestLevelSets(h *Hypergraph) (even, odd []int) {
	adj := SimpleAdjacency(h)
	depth := make([]int, h.n)
	for i := range depth {
		depth[i] = -1
	}
	for r := 0; r < h.n; r++ {
		if depth[r] != -1 || len(adj[r]) == 0 {
			continue
		}
		depth[r] = 0
		queue := []int{r}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if depth[v] == -1 {
					depth[v] = depth[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	for v := 0; v < h.n; v++ {
		if len(adj[v]) < 2 || depth[v] < 0 {
			continue
		}
		if depth[v]%2 == 0 {
			even = append(even, v)
		} else {
			odd = append(odd, v)
		}
	}
	return even, odd
}

// Cycle is a vertex-disjoint cycle found in a simple graph, listed in
// traversal order (c₁, c₂, ..., c_ℓ) with ℓ ≥ 3, or ℓ = 2 for a pair of
// parallel edges.
type Cycle []int

// ShortVertexDisjointCycles implements Case 1 of Lemma E.2: while the
// surviving subgraph has average degree above the threshold (the paper
// uses 10), Moore's bound (Lemma E.1) guarantees a cycle of length at
// most maxLen; we find a shortest cycle by BFS, collect it, delete its
// vertices, and repeat. Returns the collected vertex-disjoint cycles of
// length ≤ maxLen.
func ShortVertexDisjointCycles(h *Hypergraph, maxLen int, avgDegreeThreshold float64) []Cycle {
	adjFull := SimpleAdjacency(h)
	alive := make([]bool, h.n)
	for i := range alive {
		alive[i] = true
	}
	var cycles []Cycle
	for {
		// Current average degree over alive vertices that have edges.
		nAlive, mAlive := 0, 0
		for v := 0; v < h.n; v++ {
			if !alive[v] {
				continue
			}
			cnt := 0
			for _, u := range adjFull[v] {
				if alive[u] {
					cnt++
				}
			}
			if cnt > 0 {
				nAlive++
				mAlive += cnt
			}
		}
		if nAlive == 0 || float64(mAlive)/float64(nAlive) <= avgDegreeThreshold {
			break
		}
		c := shortestCycle(adjFull, alive, maxLen)
		if c == nil {
			break
		}
		cycles = append(cycles, c)
		for _, v := range c {
			alive[v] = false
		}
	}
	return cycles
}

// shortestCycle finds a shortest cycle of length ≤ maxLen among alive
// vertices using BFS from every vertex, or nil.
func shortestCycle(adj [][]int, alive []bool, maxLen int) Cycle {
	n := len(adj)
	var best Cycle
	parent := make([]int, n)
	depth := make([]int, n)
	for s := 0; s < n; s++ {
		if !alive[s] {
			continue
		}
		for i := range depth {
			depth[i] = -1
		}
		depth[s] = 0
		parent[s] = -1
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if !alive[v] {
					continue
				}
				if depth[v] == -1 {
					depth[v] = depth[u] + 1
					parent[v] = u
					queue = append(queue, v)
					continue
				}
				if v == parent[u] {
					continue
				}
				// Cross edge (u, v): cycle through s of length
				// depth[u] + depth[v] + 1 (an upper bound on the
				// shortest cycle through this edge).
				cyc := traceCycle(parent, depth, u, v)
				if cyc == nil {
					continue
				}
				if len(cyc) <= maxLen && (best == nil || len(cyc) < len(best)) {
					best = cyc
				}
			}
		}
		if best != nil && len(best) == 3 {
			return best // cannot do better in a simple graph
		}
	}
	return best
}

// traceCycle reconstructs the cycle closed by cross edge (u, v) in a BFS
// tree: walk both vertices up to their lowest common ancestor.
func traceCycle(parent, depth []int, u, v int) Cycle {
	var pu, pv []int
	a, b := u, v
	for depth[a] > depth[b] {
		pu = append(pu, a)
		a = parent[a]
	}
	for depth[b] > depth[a] {
		pv = append(pv, b)
		b = parent[b]
	}
	for a != b {
		pu = append(pu, a)
		pv = append(pv, b)
		a = parent[a]
		b = parent[b]
	}
	cyc := make(Cycle, 0, len(pu)+len(pv)+1)
	cyc = append(cyc, pu...)
	cyc = append(cyc, a)
	for i := len(pv) - 1; i >= 0; i-- {
		cyc = append(cyc, pv[i])
	}
	if len(cyc) < 3 {
		return nil
	}
	return cyc
}

// GreedyIndependentSet returns an independent set of the underlying simple
// graph using the min-degree greedy rule, which achieves Turán's bound of
// n′/(d̄+1) vertices where d̄ is the average degree (Theorem E.1).
// Only vertices with alive[v] (or all vertices if alive is nil) are
// considered.
func GreedyIndependentSet(h *Hypergraph, alive []bool) []int {
	adj := SimpleAdjacency(h)
	n := h.n
	avail := make([]bool, n)
	for v := 0; v < n; v++ {
		avail[v] = alive == nil || alive[v]
	}
	var out []int
	for {
		best, bestDeg := -1, math.MaxInt
		for v := 0; v < n; v++ {
			if !avail[v] {
				continue
			}
			d := 0
			for _, u := range adj[v] {
				if avail[u] {
					d++
				}
			}
			if d < bestDeg {
				best, bestDeg = v, d
			}
		}
		if best == -1 {
			break
		}
		out = append(out, best)
		avail[best] = false
		for _, u := range adj[best] {
			avail[u] = false
		}
	}
	sort.Ints(out)
	return out
}

// StrongIndependentSet returns a strong independent set of h
// (Definition F.4): no two chosen vertices share any hyperedge. The
// greedy rule (pick a vertex, discard all vertices co-occurring with it)
// matches the constructive proof used in Theorem F.8 and achieves the
// Ω(|V|/(d·(r−1))) size of Theorem F.5 up to constants. The restrict
// argument, if non-nil, limits candidates to that vertex set.
func StrongIndependentSet(h *Hypergraph, restrict []int) []int {
	n := h.n
	avail := make([]bool, n)
	if restrict == nil {
		for v := range avail {
			avail[v] = true
		}
	} else {
		for _, v := range restrict {
			avail[v] = true
		}
	}
	// Precompute co-occurrence neighborhoods.
	nbr := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		nbr[v] = make(map[int]bool)
	}
	for _, e := range h.edges {
		for _, u := range e {
			for _, v := range e {
				if u != v {
					nbr[u][v] = true
				}
			}
		}
	}
	var out []int
	for {
		best, bestDeg := -1, math.MaxInt
		for v := 0; v < n; v++ {
			if !avail[v] {
				continue
			}
			d := 0
			for u := range nbr[v] {
				if avail[u] {
					d++
				}
			}
			if d < bestDeg {
				best, bestDeg = v, d
			}
		}
		if best == -1 {
			break
		}
		out = append(out, best)
		avail[best] = false
		for u := range nbr[best] {
			avail[u] = false
		}
	}
	sort.Ints(out)
	return out
}

// IsStrongIndependentSet verifies Definition F.4 for a candidate set.
//
//faqlint:allow deadexport(item 12: the hypergraph lower bound's strong independent set, read by its own lemma test until it gets a paper-table row)
func IsStrongIndependentSet(h *Hypergraph, set []int) bool {
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for _, e := range h.edges {
		cnt := 0
		for _, v := range e {
			if in[v] {
				cnt++
			}
		}
		if cnt > 1 {
			return false
		}
	}
	return true
}
