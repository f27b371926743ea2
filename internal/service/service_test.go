package service

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/semiring"
)

func bitIdentical[T comparable](a, b *relation.Relation[T]) bool {
	if len(a.Schema()) != len(b.Schema()) || a.Len() != b.Len() {
		return false
	}
	for i := range a.Schema() {
		if a.Schema()[i] != b.Schema()[i] {
			return false
		}
	}
	for i := 0; i < a.Len(); i++ {
		if !slices.Equal(a.Tuple(i), b.Tuple(i)) || a.Value(i) != b.Value(i) {
			return false
		}
	}
	return true
}

func countQuery(t testing.TB, edges [][]int, nv, n, dom int, free []int, seed int64) *faq.Query[int64] {
	t.Helper()
	h := hypergraph.New(nv)
	for _, e := range edges {
		h.AddEdge(e...)
	}
	s := semiring.Count{}
	r := rand.New(rand.NewSource(seed))
	factors := make([]*relation.Relation[int64], h.NumEdges())
	for e := range factors {
		b := relation.NewBuilder[int64](s, h.Edge(e))
		tuple := make([]int, len(h.Edge(e)))
		for i := 0; i < n; i++ {
			for j := range tuple {
				tuple[j] = r.Intn(dom)
			}
			b.Add(tuple, int64(1+r.Intn(3)))
		}
		factors[e] = b.Build()
	}
	return &faq.Query[int64]{S: s, H: h, Factors: factors, Free: free, DomSize: dom}
}

var pathEdges = [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}

// TestServiceSolveMatchesDirect: cold request, then warm repeats, each
// bit-identical to per-request faq.Solve (Count is exact, so bit-identity
// holds regardless of which minimal GHD the planner picked).
func TestServiceSolveMatchesDirect(t *testing.T) {
	sv := New[int64](semiring.Count{}, "count", plan.NewCache(8))
	for rep := 0; rep < 3; rep++ {
		q := countQuery(t, pathEdges, 5, 50, 8, []int{0}, int64(600+rep))
		want, err := faq.Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		ans, info, err := sv.Solve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(ans, want) {
			t.Fatalf("rep %d: service answer differs from direct solve", rep)
		}
		if (rep > 0) != info.CacheHit {
			t.Fatalf("rep %d: CacheHit = %v", rep, info.CacheHit)
		}
	}
	if st := sv.cache.Stats(); st.Compiles != 1 || st.Hits != 2 {
		t.Fatalf("cache stats %+v, want 1 compile / 2 hits", st)
	}
	if st := sv.Stats(); st.Requests != 3 || st.Errors != 0 {
		t.Fatalf("service stats %+v", st)
	}
}

// TestServiceFallback: a free set no bag covers is served by BruteForce
// with Fallback marked, and the (negative) planning result is cached.
func TestServiceFallback(t *testing.T) {
	sv := New[int64](semiring.Count{}, "count", plan.NewCache(8))
	for rep := 0; rep < 2; rep++ {
		q := countQuery(t, pathEdges, 5, 20, 6, []int{0, 4}, int64(610+rep))
		want, err := faq.BruteForce(q)
		if err != nil {
			t.Fatal(err)
		}
		ans, info, err := sv.Solve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Fallback {
			t.Fatal("want Fallback")
		}
		if !bitIdentical(ans, want) {
			t.Fatal("fallback answer differs from BruteForce")
		}
	}
	if st := sv.cache.Stats(); st.Compiles != 1 {
		t.Fatalf("fallback plan not cached: %+v", st)
	}
}

// TestServiceCancellation: an already-canceled ctx stops the request with
// ctx.Err() before (or during) the GHD pass.
func TestServiceCancellation(t *testing.T) {
	sv := New[int64](semiring.Count{}, "count", plan.NewCache(8))
	q := countQuery(t, pathEdges, 5, 50, 8, []int{0}, 620)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := sv.Solve(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The same shape still serves fine with a live ctx.
	if _, _, err := sv.Solve(context.Background(), q); err != nil {
		t.Fatalf("after cancel: %v", err)
	}
}

// renameEdges applies a vertex-id bijection to an edge list (renamed
// variants of one shape share its plan, and each must bind it through
// its own maps).
func renameEdges(edges [][]int, perm []int) [][]int {
	out := make([][]int, len(edges))
	for i, e := range edges {
		ne := make([]int, len(e))
		for j, v := range e {
			ne[j] = perm[v]
		}
		out[i] = ne
	}
	return out
}

// TestServiceRenamedShapesShareOnePlan: renamed variants of two shapes,
// served one Solve at a time, compile exactly one plan per shape — each
// variant binds the shared plan through its own fingerprint — and every
// answer is bit-identical to a direct solve. A malformed request among
// them fails alone.
func TestServiceRenamedShapesShareOnePlan(t *testing.T) {
	sv := New[int64](semiring.Count{}, "count", plan.NewCache(8))
	starEdges := [][]int{{0, 1}, {0, 2}, {0, 3}}
	perms5 := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {1, 4, 0, 3, 2}}
	perms4 := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}
	var qs []*faq.Query[int64]
	for i := 0; i < 4; i++ {
		qs = append(qs, countQuery(t, renameEdges(pathEdges, perms5[i]), 5, 40, 8, []int{perms5[i][0]}, int64(700+i)))
		qs = append(qs, countQuery(t, renameEdges(starEdges, perms4[i]), 4, 40, 8, []int{perms4[i][0]}, int64(720+i)))
	}
	// One malformed request in the middle: free variable out of range.
	bad := countQuery(t, pathEdges, 5, 10, 8, nil, 730)
	bad.Free = []int{99}
	qs = append(qs[:3], append([]*faq.Query[int64]{bad}, qs[3:]...)...)

	for i, q := range qs {
		ans, _, err := sv.Solve(context.Background(), q)
		if q == bad {
			if err == nil {
				t.Fatalf("request %d: want validation error", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want, err := faq.Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(ans, want) {
			t.Fatalf("request %d: service answer differs from direct solve", i)
		}
	}
	if st := sv.cache.Stats(); st.Compiles != 2 {
		t.Fatalf("compiled %d plans for 2 shapes", st.Compiles)
	}
	if st := sv.Stats(); st.Requests != int64(len(qs)) || st.Errors != 1 {
		t.Fatalf("service stats %+v, want %d requests and 1 error", st, len(qs))
	}
}

var benchAnswerRows int

// BenchmarkServiceSolve is one warm Solve of a small Count path: a plan
// cache hit, so the cost is the envelope, canonicalization, the cache
// round-trip, bind and the pass.
func BenchmarkServiceSolve(b *testing.B) {
	sv := New[int64](semiring.Count{}, "count", plan.NewCache(8))
	q := countQuery(b, pathEdges, 5, 64, 8, []int{0}, 41)
	ctx := context.Background()
	if _, _, err := sv.Solve(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, _, err := sv.Solve(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		benchAnswerRows = ans.Len()
	}
}
