package plan

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// bitIdentical is the repository's determinism invariant: equal relations
// have identical layouts (schema, row buffer, value bytes).
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

func randFactors[T any](s semiring.Semiring[T], h *hypergraph.Hypergraph, n, dom int,
	val func(*rand.Rand) T, r *rand.Rand) []*relation.Relation[T] {
	factors := make([]*relation.Relation[T], h.NumEdges())
	for e := range factors {
		b := relation.NewBuilder(s, h.Edge(e))
		tuple := make([]int, len(h.Edge(e)))
		for i := 0; i < n; i++ {
			for j := range tuple {
				tuple[j] = r.Intn(dom)
			}
			b.Add(tuple, val(r))
		}
		factors[e] = b.Build()
	}
	return factors
}

// checkCachedEqualsFresh runs every test shape through the full plan
// path — canonicalize, compile (via a shared cache), bind, solve — for
// several renamed variants, and compares against the fresh per-query
// faq.Solve. The contract is semiring-dependent: exact semirings
// (Bool, Count) demand bit-identical answers — associative ⊕ makes the
// result independent of which minimal GHD the planner picked — while
// float semirings demand relation.Equal (identical schema and tuples,
// values within the semiring tolerance), because the canonical plan may
// legitimately choose a different minimal decomposition than per-request
// planning and float ⊕ is not associative under re-association. That is
// the same allowance the distributed protocols already need.
func checkCachedEqualsFresh[T comparable](t *testing.T, s semiring.Semiring[T], semName string, exact bool,
	val func(*rand.Rand) T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cache := NewCache(32)
	for _, sh := range testShapes(t) {
		for trial := 0; trial < 3; trial++ {
			perm := r.Perm(sh.h.NumVertices())
			if trial == 0 { // identity first: the canonical shape itself
				for i := range perm {
					perm[i] = i
				}
			}
			rh, rfRaw := renameQuery(sh.h, sh.free, perm)
			rf := append([]int(nil), rfRaw...)
			slices.Sort(rf)
			q := &faq.Query[T]{
				S:       s,
				H:       rh,
				Factors: randFactors(s, rh, 40, 8, val, r),
				Free:    rf,
				DomSize: 8,
			}
			want, err := faq.Solve(q)
			if err != nil {
				t.Fatalf("%s/%s trial %d: fresh solve: %v", semName, sh.name, trial, err)
			}
			fp, err := Canonicalize(q.H, q.Free, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, _, err := cache.Get(semName+"|"+fp.Key, func() (*Plan, error) { return Compile(fp) })
			if err != nil {
				t.Fatal(err)
			}
			g, err := p.Bind(fp, q.H)
			if err != nil {
				t.Fatalf("%s/%s trial %d: bind: %v", semName, sh.name, trial, err)
			}
			got, _, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{})
			if err != nil {
				t.Fatalf("%s/%s trial %d: cached-plan solve: %v", semName, sh.name, trial, err)
			}
			if exact {
				if !bitIdentical(got, want) {
					t.Fatalf("%s/%s trial %d: cached-plan answer not bit-identical to fresh solve\n got=%v\nwant=%v",
						semName, sh.name, trial, got, want)
				}
			} else if !relation.Equal(s, got, want) {
				t.Fatalf("%s/%s trial %d: cached-plan answer differs from fresh solve\n got=%v\nwant=%v",
					semName, sh.name, trial, got, want)
			}
		}
	}
	// Every renamed variant of a shape must have shared one compile.
	if st := cache.Stats(); st.Compiles != int64(len(testShapes(t))) {
		t.Fatalf("%s: %d compiles for %d shapes ×3 renamings — fingerprints did not share",
			semName, st.Compiles, len(testShapes(t)))
	}
}

func TestCachedPlanEqualsFreshBool(t *testing.T) {
	checkCachedEqualsFresh[bool](t, semiring.Bool{}, "bool", true, func(r *rand.Rand) bool { return r.Intn(4) > 0 }, 501)
}

func TestCachedPlanEqualsFreshCount(t *testing.T) {
	checkCachedEqualsFresh[int64](t, semiring.Count{}, "count", true, func(r *rand.Rand) int64 { return int64(r.Intn(5)) - 1 }, 502)
}

func TestCachedPlanEqualsFreshSumProduct(t *testing.T) {
	checkCachedEqualsFresh[float64](t, semiring.SumProduct{}, "sumproduct", false, func(r *rand.Rand) float64 { return r.Float64() }, 503)
}

func TestCachedPlanEqualsFreshMinPlus(t *testing.T) {
	checkCachedEqualsFresh[float64](t, semiring.MinPlus{}, "minplus", false, func(r *rand.Rand) float64 { return float64(r.Intn(40)) / 8 }, 504)
}

// TestBindRejectsMismatchedFingerprint pins the collision guard: binding
// a plan with a fingerprint of a different shape errors instead of
// executing a wrong decomposition.
func TestBindRejectsMismatchedFingerprint(t *testing.T) {
	a := pathFingerprint(t, 3)
	h := hypergraph.New(6)
	for i := 1; i < 6; i++ {
		h.AddEdge(0, i)
	}
	b, err := Canonicalize(h, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Bind(b, h); err == nil {
		t.Fatal("Bind with mismatched fingerprint must error")
	}
}
