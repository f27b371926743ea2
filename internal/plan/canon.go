// Package plan is the compiled-plan subsystem: it fingerprints FAQ query
// shapes up to variable renaming, compiles each shape once into a Plan —
// the width-minimized GYO-GHD rooted for the free variables plus the
// paper's structural size/width parameters — and serves compiled plans
// from a concurrent LRU cache with singleflight compilation, so N
// simultaneous requests for the same shape trigger exactly one
// ghd.Minimize. Binding a cached plan to a concrete request is a cheap
// relabeling (ghd.Relabel), never a re-derivation.
//
// Fingerprinting runs on every request, so it is priced by the shape,
// not by the shape's symmetry: colour refinement over dense integer
// arrays, then an individualization search that expands one child per
// known automorphism orbit of each cell (see canonizer). The star — k
// interchangeable leaves, the paper's y(H)=1 example — costs k−1 search
// nodes, not k! leaves.
package plan

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/hypergraph"
)

// Fingerprint is the canonical, variable-renaming-invariant identity of a
// query shape: two queries whose hypergraphs differ only by a bijection
// on variable ids (with free variables and per-variable aggregates mapped
// consistently) produce equal Keys. The maps translate between a concrete
// request and the canonical shape the compiled Plan lives over.
type Fingerprint struct {
	// Key is the complete canonical encoding — the cache identity (the
	// semiring name is prepended by the caller, since the plan structure
	// itself is semiring-independent). Equal Keys mean isomorphic shapes.
	Key string
	// Hash is the 64-bit FNV-1a of Key, for cheap logging/stats.
	Hash uint64
	// Exact reports whether the canonical labeling search completed
	// within budget. When false the Key is still deterministic for this
	// exact input, but a renamed twin may fingerprint differently (a
	// cache miss, never a wrong plan). Canonicalize counts these in
	// faq_plan_canon_inexact_total.
	Exact bool

	// VarTo maps each request variable id to its canonical id (-1 for
	// isolated vertices appearing in no hyperedge — they carry no factor
	// data and are excluded from the shape).
	VarTo []int
	// EdgeTo maps each request hyperedge index to its canonical index.
	EdgeTo []int

	// The canonical shape itself, from which Compile rebuilds the
	// hypergraph: edge vertex lists under canonical ids (each sorted, the
	// list lexicographically sorted), the canonical free list, and the
	// canonical per-variable aggregate names.
	NumVars    int
	CanonEdges [][]int
	CanonFree  []int
	CanonOps   map[int]string
}

// canonBudget bounds the search in expanded nodes (one individualization
// plus refinement each). Orbit pruning keeps every shape whose symmetry
// is generated by interchangeable vertices or shows up as equal leaves —
// stars, trees, cliques, cycles, disjoint copies — at a node count
// polynomial in its size, far below the budget. What can still exhaust
// it is a large shape that refinement cannot split and whose leaves are
// pairwise non-isomorphic (strongly-regular-like incidence structures):
// the search then stops at the best leaf found so far and reports
// Exact=false.
const canonBudget = 4096

// Canonicalize computes the Fingerprint of a query shape. varOps names
// the aggregate of each bound variable ("" or missing = the semiring ⊕);
// free must be the query's free-variable list. Only the hypergraph
// structure, free set, and aggregate names enter the Key — factor data,
// domain size, and semiring are bound at execution time.
func Canonicalize(h *hypergraph.Hypergraph, free []int, varOps map[int]string) (*Fingerprint, error) {
	fp, _, err := canonicalize(h, free, varOps, canonBudget)
	return fp, err
}

// canonicalize is Canonicalize under an explicit search budget; it also
// returns the number of search nodes expanded.
func canonicalize(h *hypergraph.Hypergraph, free []int, varOps map[int]string, budget int) (*Fingerprint, int, error) {
	if h == nil {
		return nil, 0, fmt.Errorf("plan: nil hypergraph")
	}
	if h.NumEdges() == 0 {
		return nil, 0, fmt.Errorf("plan: hypergraph has no edges")
	}
	n, m, edges := h.NumVertices(), h.NumEdges(), h.Edges()
	deg := make([]int, n)
	total := 0
	for _, vs := range edges {
		total += len(vs)
		for _, v := range vs {
			deg[v]++
		}
	}
	isFree := make([]bool, n)
	for _, v := range free {
		if v < 0 || v >= n {
			return nil, 0, fmt.Errorf("plan: free variable %d out of range", v)
		}
		if deg[v] == 0 {
			return nil, 0, fmt.Errorf("plan: free variable %d appears in no hyperedge", v)
		}
		isFree[v] = true
	}

	// Only covered vertices participate in the shape; they get dense ids
	// in request order, so edge member lists stay ascending.
	c := &canonizer{budget: budget, exact: true, jump: math.MaxInt}
	dense := make([]int, n)
	c.incOff = make([]int, 1, n+1)
	for v := range dense {
		dense[v] = -1
		if deg[v] > 0 {
			dense[v] = c.n
			c.n++
			c.incOff = append(c.incOff, c.incOff[len(c.incOff)-1]+deg[v])
		}
	}
	c.edgeOff = make([]int, 1, m+1)
	c.edgeVerts = make([]int, 0, total)
	c.incEdges = make([]int, total)
	fill := slices.Clone(c.incOff[:c.n])
	for e, vs := range edges {
		for _, v := range vs {
			d := dense[v]
			c.edgeVerts = append(c.edgeVerts, d)
			c.incEdges[fill[d]] = e
			fill[d]++
		}
		c.edgeOff = append(c.edgeOff, len(c.edgeVerts))
	}
	c.vOff = make([]int, c.n+1)
	for v := range c.vOff {
		c.vOff[v] = c.incOff[v] + v
	}
	c.esig = make([]int, total)
	c.vsig = make([]int, total+c.n)
	c.ecol = make([]int, m)
	c.order = make([]int, max(c.n, m))
	c.used = make([]bool, m)
	for _, l := range []*leaf{&c.cur, &c.best} {
		l.lab, l.order = make([]int, total), make([]int, m)
	}

	// Seed colours: every renaming-invariant mark a vertex carries —
	// free/bound and the aggregate name, ranked in name order.
	var names []string
	for v := range dense {
		if name := varOps[v]; name != "" && dense[v] >= 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	names = slices.Compact(names)
	col := make([]int, c.n)
	for v, d := range dense {
		if d < 0 {
			continue
		}
		if name := varOps[v]; name != "" {
			col[d] = 2 * (1 + sort.SearchStrings(names, name))
		}
		if isFree[v] {
			col[d]++
		}
	}
	c.search(col, c.refine(col, 0), 0)
	if !c.exact {
		metricCanonInexact.Inc()
	}

	best := &c.best
	fp := &Fingerprint{Exact: c.exact, NumVars: c.n}
	fp.VarTo = make([]int, n)
	fp.CanonOps = make(map[int]string)
	for v, d := range dense {
		fp.VarTo[v] = -1
		if d >= 0 {
			fp.VarTo[v] = best.perm[d]
			if name := varOps[v]; name != "" {
				fp.CanonOps[best.perm[d]] = name
			}
		}
	}
	// Canonical edges are the best leaf's relabelled, sorted edge list;
	// ties between duplicate edges were broken by request index, which
	// cannot affect the Key (duplicates encode identically).
	fp.EdgeTo = make([]int, m)
	fp.CanonEdges = make([][]int, m)
	for ci, e := range best.order {
		fp.EdgeTo[e] = ci
		lo, hi := c.edgeOff[e], c.edgeOff[e+1]
		fp.CanonEdges[ci] = best.lab[lo:hi:hi]
	}
	for _, v := range free {
		fp.CanonFree = append(fp.CanonFree, fp.VarTo[v])
	}
	sort.Ints(fp.CanonFree)

	fp.Key = encodeKey(fp)
	fp.Hash = 14695981039346656037 // FNV-1a
	for i := 0; i < len(fp.Key); i++ {
		fp.Hash = (fp.Hash ^ uint64(fp.Key[i])) * 1099511628211
	}
	return fp, c.nodes, nil
}

// canonizer runs the individualization-refinement canonical labeling over
// the vertex/hyperedge incidence structure, held as two CSR arrays of
// dense ids. Colours are dense integer ranks: refinement turns each
// hyperedge's sorted member colours into an edge rank and each vertex's
// (colour, sorted incident edge ranks) into its next colour, until the
// partition is stable. When that leaves symmetric vertices together, the
// search individualizes members of the first non-singleton cell, one per
// known orbit, and keeps the leaf whose relabelled edge list is smallest.
//
// Two facts prune the search without changing its minimum. Twins — two
// cell members whose transposition maps the edge multiset onto itself
// (sibling leaves, parallel pendants, clique vertices) — head identical
// subtrees, so one is expanded. And a leaf equal to the best leaf is an
// automorphism γ fixing every individualized vertex the two leaves
// share: it merges orbits at each common ancestor, so later siblings in
// a merged orbit are skipped, and the rest of the subtree it closed is
// γ's image of one already explored, so the search jumps straight back
// to the deepest common ancestor.
type canonizer struct {
	n                  int   // covered vertices
	edgeOff, edgeVerts []int // edge e's members: edgeVerts[edgeOff[e]:edgeOff[e+1]], ascending
	incOff, incEdges   []int // vertex v's edges: incEdges[incOff[v]:incOff[v+1]], ascending

	budget int  // search nodes allowed once a first leaf exists
	nodes  int  // search nodes expanded
	exact  bool // no subtree was abandoned for budget

	cur, best leaf
	path      []int   // individualized vertices, root to the current node
	orbits    [][]int // per depth on the current path: union-find over vertices, nil until an automorphism lands
	jump      int     // depth to unwind to after an automorphism; MaxInt when idle

	// Scratch: signatures share the CSR offsets (vertex signatures one
	// slot wider, for the old colour).
	esig, ecol []int
	vsig, vOff []int
	order      []int
	used       []bool
}

// leaf is one discrete colouring read as a labeling, with what comparing
// it costs: the edge list under it and the edge order that sorts that.
type leaf struct {
	perm  []int // vertex -> canonical id
	lab   []int // edge members under perm, each edge ascending (edgeOff layout)
	order []int // edge indices sorted by (lab, index)
	path  []int // the individualizations that led here
}

func (c *canonizer) members(e int) []int  { return c.edgeVerts[c.edgeOff[e]:c.edgeOff[e+1]] }
func (c *canonizer) incident(v int) []int { return c.incEdges[c.incOff[v]:c.incOff[v+1]] }

// refine iterates colour refinement to a fixpoint and returns the number
// of colour classes. col may hold any integers; it leaves dense ranks
// 0..k-1 whose order refines the incoming order. Since a vertex's old
// colour leads its signature, classes only split, so the loop ends when
// a round leaves the count at classes (pass 0 to force a first ranking).
func (c *canonizer) refine(col []int, classes int) int {
	for {
		for e := range c.ecol {
			sig := c.esig[c.edgeOff[e]:c.edgeOff[e+1]]
			for i, v := range c.members(e) {
				sig[i] = col[v]
			}
			slices.Sort(sig)
		}
		c.rank(c.edgeOff, c.esig, c.ecol)
		for v := range col {
			sig := c.vsig[c.vOff[v]:c.vOff[v+1]]
			sig[0] = col[v]
			for i, e := range c.incident(v) {
				sig[1+i] = c.ecol[e]
			}
			slices.Sort(sig[1:])
		}
		k := c.rank(c.vOff, c.vsig, col)
		if k == classes || k == c.n {
			return k
		}
		classes = k
	}
}

// rank writes into out the dense rank of each item's signature
// sig[off[i]:off[i+1]] — 0..k-1 in signature order, the step that makes
// colours renaming-invariant — and returns k.
func (c *canonizer) rank(off, sig, out []int) int {
	order := c.order[:len(out)]
	for i := range order {
		order[i] = i
	}
	at := func(i int) []int { return sig[off[i]:off[i+1]] }
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(at(a), at(b)) })
	k := 0
	for i, x := range order {
		if i > 0 && slices.Compare(at(order[i-1]), at(x)) != 0 {
			k++
		}
		out[x] = k
	}
	return k + 1
}

// search completes a stable colouring to discrete ones and feeds each to
// leaf. It individualizes members of the first non-singleton cell — a
// colour-based, hence renaming-invariant, choice — skipping any member
// redundant with one already expanded.
func (c *canonizer) search(col []int, classes, depth int) {
	if classes == c.n {
		c.leaf(col, depth)
		return
	}
	if len(c.orbits) == depth {
		c.orbits = append(c.orbits, nil)
	}
	c.orbits[depth] = nil
	cell := c.targetCell(col)
	reps := cell[:0] // expanded members; filters cell in place behind the loop
	for _, v := range cell {
		if c.redundant(reps, v, depth) {
			continue
		}
		// The first descent always reaches a leaf; after that an empty
		// budget abandons what is left, and the minimum may be missed.
		if c.nodes >= c.budget && c.best.perm != nil {
			c.exact = false
			return
		}
		c.nodes++
		reps = append(reps, v)
		// Split v off the front of its cell: order-preserving, so every
		// seed class keeps its range of canonical ids at every leaf.
		child := make([]int, c.n)
		for u, x := range col {
			child[u] = 2*x + 1
		}
		child[v]--
		c.path = append(c.path[:depth], v)
		c.search(child, c.refine(child, classes+1), depth+1)
		if c.jump < depth {
			return
		}
		c.jump = math.MaxInt
	}
}

// targetCell returns the members of the first (smallest-colour)
// non-singleton cell, ascending.
func (c *canonizer) targetCell(col []int) []int {
	count := c.order[:c.n]
	clear(count)
	for _, x := range col {
		count[x]++
	}
	target := 0
	for count[target] < 2 {
		target++
	}
	cell := make([]int, 0, count[target])
	for v, x := range col {
		if x == target {
			cell = append(cell, v)
		}
	}
	return cell
}

// redundant reports whether v's subtree is the image of an expanded
// sibling's under a known automorphism fixing the current path.
func (c *canonizer) redundant(reps []int, v, depth int) bool {
	orb := c.orbits[depth]
	for _, u := range reps {
		if (orb != nil && find(orb, u) == find(orb, v)) || c.twins(u, v) {
			return true
		}
	}
	return false
}

// twins reports whether transposing u and v — two members of one cell,
// so their marks agree — maps the edge multiset onto itself: the edges
// holding exactly one of them pair off, equal but for u↔v.
func (c *canonizer) twins(u, v int) bool {
	eu, ev := c.incident(u), c.incident(v)
	if len(eu) != len(ev) {
		return false
	}
	used := c.used[:len(ev)]
	clear(used)
next:
	for _, e := range eu {
		if slices.Contains(c.members(e), v) {
			continue
		}
		for j, f := range ev {
			if !used[j] && c.equalBut(e, u, f, v) {
				used[j] = true
				continue next
			}
		}
		return false
	}
	return true
}

// equalBut reports whether edge e without u equals edge f without v,
// for u ∈ e and v ∈ f.
func (c *canonizer) equalBut(e, u, f, v int) bool {
	a, b := c.members(e), c.members(f)
	if len(a) != len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		if x == u {
			continue
		}
		if b[j] == v {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// leaf scores a discrete colouring against the best leaf so far.
func (c *canonizer) leaf(perm []int, depth int) {
	l := &c.cur
	l.perm = perm
	l.path = append(l.path[:0], c.path[:depth]...)
	for e := range l.order {
		lab := l.lab[c.edgeOff[e]:c.edgeOff[e+1]]
		for i, v := range c.members(e) {
			lab[i] = perm[v]
		}
		slices.Sort(lab)
		l.order[e] = e
	}
	slices.SortFunc(l.order, func(a, b int) int {
		if d := slices.Compare(c.edgeOf(l, a), c.edgeOf(l, b)); d != 0 {
			return d
		}
		return a - b
	})
	if c.best.perm == nil {
		c.cur, c.best = c.best, c.cur
		return
	}
	d := 0
	for i := 0; i < len(l.order) && d == 0; i++ {
		d = slices.Compare(c.edgeOf(l, l.order[i]), c.edgeOf(&c.best, c.best.order[i]))
	}
	switch {
	case d < 0:
		c.cur, c.best = c.best, c.cur
	case d == 0:
		c.automorphism()
	}
}

func (c *canonizer) edgeOf(l *leaf, e int) []int { return l.lab[c.edgeOff[e]:c.edgeOff[e+1]] }

// automorphism records γ = "the vertex holding v's best-leaf id in the
// current leaf", an automorphism because the two leaves relabel the
// shape identically (seed classes keep their id ranges, so marks map
// too). γ fixes the individualized prefix the leaves share, so it merges
// orbits at every node on that prefix and proves the subtree below the
// last of them redundant.
func (c *canonizer) automorphism() {
	common := 0
	for common < len(c.best.path) && common < len(c.cur.path) && c.best.path[common] == c.cur.path[common] {
		common++
	}
	holder := c.order[:c.n]
	for v, id := range c.cur.perm {
		holder[id] = v
	}
	for depth := 0; depth <= common; depth++ {
		orb := c.orbits[depth]
		if orb == nil {
			orb = make([]int, c.n)
			for v := range orb {
				orb[v] = v
			}
			c.orbits[depth] = orb
		}
		for v, id := range c.best.perm {
			orb[find(orb, v)] = find(orb, holder[id])
		}
	}
	c.jump = common
}

// find is union-find lookup with path halving.
func find(parent []int, v int) int {
	for parent[v] != v {
		parent[v] = parent[parent[v]]
		v = parent[v]
	}
	return v
}

// encodeKey serializes the canonical shape: vertex count, edge list, free
// list, aggregate names. This is the complete cache identity (modulo the
// semiring name the caller prepends).
func encodeKey(fp *Fingerprint) string {
	b := make([]byte, 0, 64)
	list := func(vs []int) {
		for _, x := range vs {
			b = append(strconv.AppendInt(b, int64(x), 10), ',')
		}
	}
	b = strconv.AppendInt(append(b, 'v'), int64(fp.NumVars), 10)
	b = append(b, "|E:"...)
	for _, vs := range fp.CanonEdges {
		list(vs)
		b = append(b, ';')
	}
	b = append(b, "|F:"...)
	list(fp.CanonFree)
	b = append(b, "|O:"...)
	for v := 0; v < fp.NumVars; v++ {
		if name, ok := fp.CanonOps[v]; ok {
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(append(append(b, '='), name...), ',')
		}
	}
	return string(b)
}
