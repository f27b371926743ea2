package plan

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hypergraph"
)

// fuzzShape decodes a query shape of ≤ 7 vertices and ≤ 7 hyperedges of
// arity ≤ 3 from fuzz bytes: vertex count, free mask, two bytes of
// per-vertex aggregate marks, then four bytes per edge (arity, members).
// Marks on uncovered vertices are dropped; ok is false without an edge.
func fuzzShape(data []byte) (h *hypergraph.Hypergraph, free []int, ops map[int]string, ok bool) {
	if len(data) < 8 {
		return nil, nil, nil, false
	}
	n := 1 + int(data[0])%7
	h = hypergraph.New(n)
	covered := make([]bool, n)
	for g := data[4:]; len(g) >= 4 && h.NumEdges() < 7; g = g[4:] {
		vs := make([]int, 1+int(g[0])%3)
		for i := range vs {
			vs[i] = int(g[1+i]) % n
			covered[vs[i]] = true
		}
		h.AddEdge(vs...)
	}
	marks := uint(data[2]) | uint(data[3])<<8
	ops = map[int]string{}
	for v := 0; v < n; v++ {
		switch {
		case !covered[v]:
		case data[1]>>v&1 == 1:
			free = append(free, v)
		case marks>>(2*v)&3 == 1:
			ops[v] = "mul"
		case marks>>(2*v)&3 == 2:
			ops[v] = "max"
		}
	}
	return h, free, ops, true
}

// isomorphic is the brute-force oracle: some bijection between the
// covered vertices of a and b maps the edge multiset, the free set and
// the aggregate marks of a onto b's.
func isomorphic(a, b *hypergraph.Hypergraph, freeA, freeB []int, opsA, opsB map[int]string) bool {
	mark := func(v int, free []int, ops map[int]string) string {
		if slices.Contains(free, v) {
			return "free"
		}
		return ops[v]
	}
	coveredOf := func(h *hypergraph.Hypergraph) []int {
		var vs []int
		for v := 0; v < h.NumVertices(); v++ {
			if h.Degree(v) > 0 {
				vs = append(vs, v)
			}
		}
		return vs
	}
	sortedEdges := func(h *hypergraph.Hypergraph, to []int) [][]int {
		out := make([][]int, h.NumEdges())
		for e, vs := range h.Edges() {
			for _, v := range vs {
				out[e] = append(out[e], to[v])
			}
			slices.Sort(out[e])
		}
		slices.SortFunc(out, slices.Compare[[]int])
		return out
	}
	va, vb := coveredOf(a), coveredOf(b)
	if len(va) != len(vb) || a.NumEdges() != b.NumEdges() {
		return false
	}
	ident := make([]int, b.NumVertices())
	for v := range ident {
		ident[v] = v
	}
	want := sortedEdges(b, ident)
	to := make([]int, a.NumVertices())
	used := make([]bool, len(vb))
	var try func(i int) bool
	try = func(i int) bool {
		if i == len(va) {
			return slices.EqualFunc(sortedEdges(a, to), want, slices.Equal[[]int])
		}
		for j, w := range vb {
			if used[j] || mark(va[i], freeA, opsA) != mark(w, freeB, opsB) {
				continue
			}
			used[j], to[va[i]] = true, w
			if try(i + 1) {
				return true
			}
			used[j] = false
		}
		return false
	}
	return try(0)
}

// FuzzCanonicalize checks the fingerprint contract on arbitrary small
// shapes: every presentation of a shape gets one exact Key, and — for
// shapes small enough to brute-force — two shapes share a Key exactly
// when they are isomorphic, free set and aggregate marks included.
func FuzzCanonicalize(f *testing.F) {
	star := []byte{6, 1, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 4, 0, 1, 0, 5, 0}
	tri := []byte{3, 0, 0, 0, 1, 0, 1, 0, 1, 1, 2, 0, 1, 0, 2, 0}
	wide := []byte{5, 2, 4, 0, 2, 0, 1, 2, 2, 2, 3, 4, 1, 0, 1, 0, 1, 0, 1, 0}
	f.Add(star, star, int64(1))
	f.Add(tri, wide, int64(2))
	f.Add(wide, wide[:16], int64(3))
	f.Fuzz(func(t *testing.T, a, b []byte, seed int64) {
		ha, freeA, opsA, ok := fuzzShape(a)
		if !ok {
			return
		}
		fa, err := Canonicalize(ha, freeA, opsA)
		if err != nil {
			t.Fatalf("Canonicalize: %v", err)
		}
		hr, freeR, opsR := shuffleQuery(rand.New(rand.NewSource(seed)), ha, freeA, opsA)
		fr, err := Canonicalize(hr, freeR, opsR)
		if err != nil {
			t.Fatalf("Canonicalize(renamed): %v", err)
		}
		if !fa.Exact || !fr.Exact || fa.Key != fr.Key {
			t.Fatalf("renaming changed the fingerprint of %v free %v ops %v:\n%q exact=%v\n%q exact=%v",
				ha, freeA, opsA, fa.Key, fa.Exact, fr.Key, fr.Exact)
		}
		hb, freeB, opsB, ok := fuzzShape(b)
		if !ok || ha.NumVertices() > 6 || hb.NumVertices() > 6 {
			return
		}
		fb, err := Canonicalize(hb, freeB, opsB)
		if err != nil {
			t.Fatalf("Canonicalize: %v", err)
		}
		if iso := isomorphic(ha, hb, freeA, freeB, opsA, opsB); iso != (fa.Key == fb.Key) {
			t.Fatalf("isomorphic=%v but keys %q / %q\na: %v free %v ops %v\nb: %v free %v ops %v",
				iso, fa.Key, fb.Key, ha, freeA, opsA, hb, freeB, opsB)
		}
	})
}
