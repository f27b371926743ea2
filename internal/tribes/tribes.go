// Package tribes implements the lower-bound machinery of Sections 2.2.2
// and 4.2: TRIBES instances (Theorem 2.3), their embeddings into BCQ
// instances — at independent vertex sites for forests (Lemma 4.3,
// Example 2.4) and general graphs' independent sets (Theorem 4.4 Case 2,
// generalized to strong independent sets of hypergraphs, Theorem F.8),
// and along vertex-disjoint cycles (Theorem 4.4 Case 1) — plus the
// cut-splitting worst-case assignments of Lemma 4.4 and the resulting
// round lower-bound formula.
//
// The embeddings are machine-checked: BCQ(embedded instance) must equal
// TRIBES(instance) on every input, which the tests verify against the
// brute-force solver.
package tribes

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// Instance is TRIBES_{m,N}: m pairs of subsets of [0, N).
// TRIBES(S̄, T̄) = ∧_i DISJ_N(S_i, T_i), where DISJ_N(X, Y) = 1 iff
// X ∩ Y ≠ ∅ (the paper's convention in Theorem 2.3).
type Instance struct {
	N    int
	S, T [][]int
}

// M returns the number of pairs.
func (in *Instance) M() int { return len(in.S) }

// Validate checks shape and ranges.
func (in *Instance) Validate() error {
	if in.N < 1 {
		return fmt.Errorf("tribes: N = %d < 1", in.N)
	}
	if len(in.S) != len(in.T) {
		return fmt.Errorf("tribes: %d S-sets vs %d T-sets", len(in.S), len(in.T))
	}
	for i := range in.S {
		for _, x := range append(append([]int(nil), in.S[i]...), in.T[i]...) {
			if x < 0 || x >= in.N {
				return fmt.Errorf("tribes: element %d outside [0,%d)", x, in.N)
			}
		}
	}
	return nil
}

// Eval computes TRIBES: every pair must intersect.
func (in *Instance) Eval() bool {
	for i := range in.S {
		inS := make(map[int]bool, len(in.S[i]))
		for _, x := range in.S[i] {
			inS[x] = true
		}
		hit := false
		for _, y := range in.T[i] {
			if inS[y] {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// HardInstance samples the lower bound's worst-case shape (Remark G.5):
// each pair either intersects in exactly one element (value 1) or is
// disjoint (value 0), split half-half across the universe.
func HardInstance(m, n int, value bool, r *rand.Rand) *Instance {
	in := &Instance{N: n}
	for i := 0; i < m; i++ {
		perm := r.Perm(n)
		half := n / 2
		s := append([]int(nil), perm[:half]...)
		t := append([]int(nil), perm[half:]...)
		if value {
			// Plant a single intersection element.
			t[r.Intn(len(t))] = s[r.Intn(len(s))]
		}
		in.S = append(in.S, s)
		in.T = append(in.T, t)
	}
	return in
}

// Embedding is a BCQ instance equivalent to a TRIBES instance, plus the
// bookkeeping needed for cut-splitting assignments: which hyperedge
// carries R_{S_i} and which carries R_{T_i}.
type Embedding struct {
	Q      *faq.Query[bool]
	M      int
	SEdges []int
	TEdges []int
}

var sb = semiring.Bool{}

// Site is a vertex at which one DISJ pair is embedded, together with its
// designated S- and T-carrying incident edges (the (o, oc) and (o, op)
// of Lemma 4.3).
type Site struct {
	Vertex int
	SEdge  int
	TEdge  int
}

// SitesForForest returns the Lemma 4.3 sites of an arity-2 forest: the
// larger of the even/odd-depth degree-≥2 level sets, so that
// m ≥ y(H)/2.
func SitesForForest(h *hypergraph.Hypergraph) ([]Site, error) {
	if !h.IsSimpleGraph() {
		return nil, fmt.Errorf("tribes: forest sites need arity ≤ 2")
	}
	if !hypergraph.IsGraphForest(h) {
		return nil, fmt.Errorf("tribes: hypergraph is not a forest")
	}
	even, odd := hypergraph.ForestLevelSets(h)
	chosen := even
	if len(odd) > len(even) {
		chosen = odd
	}
	return sitesAt(h, chosen)
}

// SitesForIndependentSet returns Theorem 4.4 Case 2 sites: an
// independent set of degree-≥2 vertices of a simple graph.
//
//faqlint:allow deadexport(item 12: Theorem 4.4 Case 2's embedding sites, checked by their own lemma tests until they get a paper-table row)
func SitesForIndependentSet(h *hypergraph.Hypergraph) ([]Site, error) {
	if !h.IsSimpleGraph() {
		return nil, fmt.Errorf("tribes: independent-set sites need arity ≤ 2")
	}
	alive := make([]bool, h.NumVertices())
	for v := range alive {
		alive[v] = h.Degree(v) >= 2
	}
	return sitesAt(h, hypergraph.GreedyIndependentSet(h, alive))
}

// SitesForStrongIS returns Theorem F.8 sites for hypergraphs: a strong
// independent set (no two sites co-occur in any hyperedge) of degree-≥2
// vertices.
//
//faqlint:allow deadexport(item 12: Theorem F.8's embedding sites, checked by their own lemma tests until they get a paper-table row)
func SitesForStrongIS(h *hypergraph.Hypergraph) ([]Site, error) {
	var candidates []int
	for v := 0; v < h.NumVertices(); v++ {
		if h.Degree(v) >= 2 {
			candidates = append(candidates, v)
		}
	}
	return sitesAt(h, hypergraph.StrongIndependentSet(h, candidates))
}

func sitesAt(h *hypergraph.Hypergraph, vertices []int) ([]Site, error) {
	var sites []Site
	for _, v := range vertices {
		inc := h.IncidentEdges(v)
		if len(inc) < 2 {
			continue
		}
		sites = append(sites, Site{Vertex: v, SEdge: inc[0], TEdge: inc[1]})
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("tribes: no degree-≥2 embedding sites")
	}
	return sites, nil
}

// EmbedAtSites builds the BCQ instance of Lemma 4.3 / Theorem F.8: pair
// i lands at site i — R_{S_i} = S_i × {0}^(r-1) on the site's S-edge
// keyed by the site vertex, R_{T_i} likewise on the T-edge; other edges
// incident to a site range freely over the site's coordinate; edges
// touching no site hold the all-zero singleton. BCQ = 1 iff every pair
// intersects (site coordinates must take a common value per site).
func EmbedAtSites(h *hypergraph.Hypergraph, sites []Site, in *Instance) (*Embedding, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.M() > len(sites) {
		return nil, fmt.Errorf("tribes: %d pairs exceed %d sites", in.M(), len(sites))
	}
	sites = sites[:in.M()]
	siteAt := make(map[int]int) // vertex -> pair index
	for i, s := range sites {
		siteAt[s.Vertex] = i
	}
	// Edges must contain at most one site vertex for the construction
	// to decompose (guaranteed by [strong] independence; checked).
	factors := make([]*relation.Relation[bool], h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		verts := h.Edge(e)
		var siteIdx, siteVertex = -1, -1
		for _, v := range verts {
			if i, ok := siteAt[v]; ok {
				if siteIdx != -1 {
					return nil, fmt.Errorf("tribes: edge %d contains two sites", e)
				}
				siteIdx, siteVertex = i, v
			}
		}
		b := relation.NewBuilder[bool](sb, verts)
		addWith := func(val int) {
			tuple := make([]int, len(verts))
			for j, v := range verts {
				if v == siteVertex {
					tuple[j] = val
				}
			}
			b.AddOne(tuple...)
		}
		switch {
		case siteIdx == -1:
			b.AddOne(make([]int, len(verts))...)
		case e == sites[siteIdx].SEdge:
			for _, s := range in.S[siteIdx] {
				addWith(s)
			}
		case e == sites[siteIdx].TEdge:
			for _, t := range in.T[siteIdx] {
				addWith(t)
			}
		default:
			for x := 0; x < in.N; x++ {
				addWith(x)
			}
		}
		factors[e] = b.Build()
	}
	emb := &Embedding{Q: faq.NewBCQ(h, factors, in.N), M: in.M()}
	for _, s := range sites {
		emb.SEdges = append(emb.SEdges, s.SEdge)
		emb.TEdges = append(emb.TEdges, s.TEdge)
	}
	if err := emb.Q.Validate(); err != nil {
		return nil, err
	}
	return emb, nil
}

// Cycles returns the Theorem 4.4 Case 1 embedding sites: vertex-disjoint
// cycles of length at most 2·log₂|V| found via Moore's bound collection.
//
//faqlint:allow deadexport(item 12: Theorem 4.4 Case 1's cycle sites, checked by their own lemma tests until they get a paper-table row)
func Cycles(h *hypergraph.Hypergraph) []hypergraph.Cycle {
	maxLen := 2 * int(math.Ceil(math.Log2(float64(h.NumVertices()+2))))
	if maxLen < 3 {
		maxLen = 3
	}
	return hypergraph.ShortVertexDisjointCycles(h, maxLen, 2.0)
}

// EmbedOnCycles builds the Case 1 BCQ instance: pair i is encoded on
// cycle i with S_i, T_i ⊆ [ν²] read as ν×ν relations on the first two
// cycle edges, an equality chain around the rest of the cycle, and the
// full relation on edges outside all cycles. in.N must be a perfect
// square.
//
//faqlint:allow deadexport(item 12: Theorem 4.4 Case 1's embedding, checked by its own lemma tests until it gets a paper-table row)
func EmbedOnCycles(h *hypergraph.Hypergraph, cycles []hypergraph.Cycle, in *Instance) (*Embedding, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	nu := int(math.Round(math.Sqrt(float64(in.N))))
	if nu*nu != in.N {
		return nil, fmt.Errorf("tribes: cycle embedding needs square N, got %d", in.N)
	}
	if in.M() > len(cycles) {
		return nil, fmt.Errorf("tribes: %d pairs exceed %d cycles", in.M(), len(cycles))
	}
	if !h.IsSimpleGraph() {
		return nil, fmt.Errorf("tribes: cycle embedding needs arity ≤ 2")
	}
	// Map each graph edge {u, v} to its role.
	type role struct {
		kind  int // 0 free, 1 S, 2 T, 3 equality
		pair  int
		first int // vertex carrying the "a" coordinate
	}
	roles := make(map[[2]int]role)
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for i := 0; i < in.M(); i++ {
		c := cycles[i]
		if len(c) < 3 {
			return nil, fmt.Errorf("tribes: cycle %d too short", i)
		}
		roles[key(c[0], c[1])] = role{kind: 1, pair: i, first: c[0]}
		roles[key(c[1], c[2])] = role{kind: 2, pair: i, first: c[2]}
		for j := 2; j < len(c); j++ {
			u, v := c[j], c[(j+1)%len(c)]
			roles[key(u, v)] = role{kind: 3, pair: i, first: u}
		}
	}
	var sEdges, tEdges []int
	factors := make([]*relation.Relation[bool], h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		verts := h.Edge(e)
		b := relation.NewBuilder[bool](sb, verts)
		if len(verts) != 2 {
			// Self-loops outside cycles range freely.
			for x := 0; x < nu; x++ {
				b.AddOne(x)
			}
			factors[e] = b.Build()
			continue
		}
		ro, onCycle := roles[key(verts[0], verts[1])]
		addPair := func(firstVal, secondVal int, first int) {
			if verts[0] == first {
				b.AddOne(firstVal, secondVal)
			} else {
				b.AddOne(secondVal, firstVal)
			}
		}
		switch {
		case !onCycle:
			for x := 0; x < nu; x++ {
				for y := 0; y < nu; y++ {
					b.AddOne(x, y)
				}
			}
		case ro.kind == 1: // (c0, c1) carries S: x_{c0}=a, x_{c1}=b
			for _, s := range in.S[ro.pair] {
				addPair(s/nu, s%nu, ro.first)
			}
			sEdges = append(sEdges, e)
		case ro.kind == 2: // (c1, c2) carries T: x_{c2}=a, x_{c1}=b
			for _, t := range in.T[ro.pair] {
				addPair(t/nu, t%nu, ro.first)
			}
			tEdges = append(tEdges, e)
		default: // equality chain
			for x := 0; x < nu; x++ {
				b.AddOne(x, x)
			}
		}
		factors[e] = b.Build()
	}
	emb := &Embedding{Q: faq.NewBCQ(h, factors, nu), M: in.M(), SEdges: sEdges, TEdges: tEdges}
	if err := emb.Q.Validate(); err != nil {
		return nil, err
	}
	return emb, nil
}

// LowerBoundBits is Theorem 2.3: any randomized protocol for
// TRIBES_{m,N} (hence for the embedded BCQ, via Lemma 4.3/4.4) must
// exchange Ω(m·N) bits across any cut separating the S-side from the
// T-side. Constants are dropped.
func LowerBoundBits(m, n int) float64 { return float64(m) * float64(n) }

// LowerBoundRounds converts the bit bound into the round bound of
// Lemma 4.4 under the paper's Ω̃ convention (Section 3.1): each round
// moves at most MinCut·⌈log₂ MinCut⌉ messages of O(log₂ N) bits across
// the cut, so rounds ≥ m·N / (MinCut·⌈log₂ MinCut⌉·⌈log₂ N⌉), with the
// polylog factors the paper's Ω̃ hides divided out explicitly.
func LowerBoundRounds(m, n, minCut int) float64 {
	if minCut <= 0 {
		return 0
	}
	logCut := 1.0
	if minCut > 1 {
		logCut = math.Ceil(math.Log2(float64(minCut)))
	}
	logN := 1.0
	if n > 1 {
		logN = math.Ceil(math.Log2(float64(n)))
	}
	return LowerBoundBits(m, n) / (float64(minCut) * logCut * logN)
}

// CutAssignment places the embedding's relations per Lemma 4.4: every
// R_{S_i} on a node of side A of the given cut, every R_{T_i} on side B,
// and the padding relations alternating. It returns the assignment and
// the two chosen player nodes.
func CutAssignment(emb *Embedding, side []bool) ([]int, int, int, error) {
	aNode, bNode := -1, -1
	for v, inA := range side {
		if inA && aNode == -1 {
			aNode = v
		}
		if !inA && bNode == -1 {
			bNode = v
		}
	}
	if aNode == -1 || bNode == -1 {
		return nil, 0, 0, fmt.Errorf("tribes: cut does not split the topology")
	}
	isS := make(map[int]bool, len(emb.SEdges))
	for _, e := range emb.SEdges {
		isS[e] = true
	}
	isT := make(map[int]bool, len(emb.TEdges))
	for _, e := range emb.TEdges {
		isT[e] = true
	}
	assign := make([]int, emb.Q.H.NumEdges())
	flip := false
	for e := range assign {
		switch {
		case isS[e]:
			assign[e] = aNode
		case isT[e]:
			assign[e] = bNode
		default:
			if flip {
				assign[e] = bNode
			} else {
				assign[e] = aNode
			}
			flip = !flip
		}
	}
	return assign, aNode, bNode, nil
}
