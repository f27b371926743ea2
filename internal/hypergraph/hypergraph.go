// Package hypergraph implements the query multi-hypergraphs H = (V, E) of
// "Topology Dependent Bounds For FAQs" together with the structural
// machinery its bounds are built from: the GYO elimination algorithm
// (Definition 2.6), the core/forest decomposition C(H), W(H) and n₂(H)
// (Definitions 2.7 and 3.1), degeneracy (Definition 3.3), and the
// combinatorial primitives used by the lower-bound embeddings
// (short vertex-disjoint cycles via Moore's bound, independent sets via
// Turán's theorem, and strong independent sets, Appendix E and F).
package hypergraph

import (
	"fmt"
	"sort"
	"strings"
)

// Hypergraph is a multi-hypergraph over vertices 0..NumVertices()-1.
// Duplicate hyperedges are allowed (the paper's H₀ has four copies of the
// self-loop (A)). Edges store their vertex sets sorted ascending and
// deduplicated.
type Hypergraph struct {
	n     int
	edges [][]int
	names []string // optional vertex names; nil means numeric
}

// New returns an empty multi-hypergraph on n vertices.
func New(n int) *Hypergraph {
	if n < 0 {
		//faqlint:allow nopanic(programmer-error precondition: vertex counts come from validated queries)
		panic(fmt.Sprintf("hypergraph: negative vertex count %d", n))
	}
	return &Hypergraph{n: n}
}

// AddEdge appends a hyperedge on the given vertices and returns its index.
// Vertices are deduplicated and stored sorted. An edge must contain at
// least one vertex; out-of-range vertices are programmer errors and panic.
func (h *Hypergraph) AddEdge(vertices ...int) int {
	if len(vertices) == 0 {
		//faqlint:allow nopanic(programmer-error precondition: empty hyperedges are a construction bug)
		panic("hypergraph: empty hyperedge")
	}
	vs := append([]int(nil), vertices...)
	sort.Ints(vs)
	out := vs[:0]
	prev := -1
	for _, v := range vs {
		if v < 0 || v >= h.n {
			//faqlint:allow nopanic(programmer-error precondition: vertex range is fixed at construction)
			panic(fmt.Sprintf("hypergraph: vertex %d out of range [0,%d)", v, h.n))
		}
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	h.edges = append(h.edges, out)
	return len(h.edges) - 1
}

// NumVertices returns |V|.
func (h *Hypergraph) NumVertices() int { return h.n }

// NumEdges returns |E| (counting multiplicity).
func (h *Hypergraph) NumEdges() int { return len(h.edges) }

// Edge returns the sorted vertex set of edge e. The caller must not
// modify the returned slice.
func (h *Hypergraph) Edge(e int) []int { return h.edges[e] }

// Edges returns all edges; the caller must not modify them.
func (h *Hypergraph) Edges() [][]int { return h.edges }

// Arity returns the maximum edge size r, or 0 for an edgeless hypergraph.
func (h *Hypergraph) Arity() int {
	r := 0
	for _, e := range h.edges {
		if len(e) > r {
			r = len(e)
		}
	}
	return r
}

// Degree returns the number of edges containing vertex v (Definition 3.2).
func (h *Hypergraph) Degree(v int) int {
	d := 0
	for _, e := range h.edges {
		if containsSorted(e, v) {
			d++
		}
	}
	return d
}

// VertexName returns the display name of vertex v.
func (h *Hypergraph) VertexName(v int) string {
	if h.names != nil && v < len(h.names) {
		return h.names[v]
	}
	return fmt.Sprintf("x%d", v)
}

// EdgeString renders edge e as, e.g., "R3(A,B,C)".
func (h *Hypergraph) EdgeString(e int) string {
	parts := make([]string, len(h.edges[e]))
	for i, v := range h.edges[e] {
		parts[i] = h.VertexName(v)
	}
	return fmt.Sprintf("R%d(%s)", e, strings.Join(parts, ","))
}

// String renders the hypergraph for diagnostics.
func (h *Hypergraph) String() string {
	parts := make([]string, len(h.edges))
	for i := range h.edges {
		parts[i] = h.EdgeString(i)
	}
	return fmt.Sprintf("H{n=%d, %s}", h.n, strings.Join(parts, " "))
}

// IsSimpleGraph reports whether every edge has arity at most two, i.e. H
// is a (multi)graph in the sense of Section 4.
func (h *Hypergraph) IsSimpleGraph() bool { return h.Arity() <= 2 }

// IncidentEdges returns the indices of edges containing v.
func (h *Hypergraph) IncidentEdges(v int) []int {
	var out []int
	for i, e := range h.edges {
		if containsSorted(e, v) {
			out = append(out, i)
		}
	}
	return out
}

// VerticesOf returns the sorted union of the vertex sets of the given
// edges.
func (h *Hypergraph) VerticesOf(edgeIdx []int) []int {
	seen := make(map[int]bool)
	for _, e := range edgeIdx {
		for _, v := range h.edges[e] {
			seen[v] = true
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Builder constructs a hypergraph from named vertices, registering names
// on first use. It is the convenient front door for examples and tests:
//
//	b := hypergraph.NewBuilder()
//	b.Edge("A", "B", "C") // R(A,B,C)
//	b.Edge("B", "D")      // S(B,D)
//	h := b.Build()
type Builder struct {
	index map[string]int
	names []string
	edges [][]string
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[string]int)}
}

// Vertex registers (or looks up) a named vertex and returns its id.
func (b *Builder) Vertex(name string) int {
	if id, ok := b.index[name]; ok {
		return id
	}
	id := len(b.names)
	b.index[name] = id
	b.names = append(b.names, name)
	return id
}

// Edge appends a hyperedge on the named vertices and returns its index.
func (b *Builder) Edge(names ...string) int {
	for _, n := range names {
		b.Vertex(n)
	}
	b.edges = append(b.edges, append([]string(nil), names...))
	return len(b.edges) - 1
}

// Build materializes the hypergraph.
func (b *Builder) Build() *Hypergraph {
	h := New(len(b.names))
	h.names = append([]string(nil), b.names...)
	for _, e := range b.edges {
		ids := make([]int, len(e))
		for i, n := range e {
			ids[i] = b.index[n]
		}
		h.AddEdge(ids...)
	}
	return h
}

// VertexID returns the id of a named vertex, or -1 if unknown.
func (b *Builder) VertexID(name string) int {
	if id, ok := b.index[name]; ok {
		return id
	}
	return -1
}

// containsSorted reports whether sorted slice s contains v.
func containsSorted(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

// subsetSorted reports whether sorted slice a ⊆ sorted slice b.
func subsetSorted(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}

// IntersectSorted returns the intersection of two sorted slices.
func IntersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// UnionSorted returns the union of two sorted slices.
func UnionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i == len(a):
			out = append(out, b[j])
			j++
		case j == len(b):
			out = append(out, a[i])
			i++
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// DiffSorted returns a \ b for sorted slices.
func DiffSorted(a, b []int) []int {
	var out []int
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// SubsetSorted reports whether sorted a ⊆ sorted b. Exported for use by
// the ghd package's running-intersection checks.
func SubsetSorted(a, b []int) bool { return subsetSorted(a, b) }

// ContainsSorted reports whether sorted s contains v.
func ContainsSorted(s []int, v int) bool { return containsSorted(s, v) }
