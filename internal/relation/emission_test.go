package relation

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/semiring"
)

// emissionCase is one Join path. sorted says whether the path emits its
// rows already in output order (skipping the Builder) or hands them to
// the Builder to sort.
type emissionCase struct {
	name    string
	a, b    []int
	indexed bool // through JoinIndexed with a SortedIndex of b
	sorted  bool
}

// emissionCases cover every Join path: the prefix merge join and the
// non-prefix key-order join, each with a leading operand, with the
// operands swapped by Join's orientation choice, and interleaved (the
// Builder sorts); and JoinIndexed through joinOrdered (the shared
// variables do not lead b) and through joinLeading (they do).
var emissionCases = []emissionCase{
	{"prefix/leading", []int{0, 1}, []int{0, 2}, false, true},
	{"prefix/leading-p2", []int{0, 1, 2}, []int{0, 1, 3}, false, true},
	{"prefix/swapped", []int{0, 2}, []int{0, 1}, false, true},
	{"prefix/interleaved", []int{0, 1, 3}, []int{0, 2}, false, false},
	{"non-prefix/leading", []int{0, 1}, []int{1, 2}, false, true},
	{"non-prefix/leading-2shared", []int{0, 2, 3}, []int{2, 3, 4}, false, true},
	{"non-prefix/swapped", []int{1, 2}, []int{0, 1}, false, true},
	{"non-prefix/interleaved", []int{0, 2}, []int{1, 2}, false, false},
	{"non-prefix/interleaved-arity4", []int{0, 1, 3, 4}, []int{2, 3}, false, false},
	{"indexed/ordered", []int{0, 2}, []int{1, 2}, true, false},
	{"indexed/leading", []int{0, 1}, []int{1, 2}, true, true},
	{"indexed/leading-interleaved", []int{0, 3}, []int{1, 2}, true, false},
}

// runEmissionCase joins a and b along c's path.
func runEmissionCase[T any](s semiring.Semiring[T], c emissionCase, a, b *Relation[T]) *Relation[T] {
	if !c.indexed {
		return Join(s, a, b)
	}
	return JoinIndexed(s, a, b, BuildSortedIndex(b, hypergraph.IntersectSorted(a.schema, b.schema)))
}

// emitsSorted reports whether c's path skips the Builder: Join orients
// its operands so that one leads when either can; JoinIndexed keeps a as
// the probe side.
func (c emissionCase) emitsSorted() bool {
	p := len(hypergraph.IntersectSorted(c.a, c.b))
	return restBefore(c.a, c.b, p) || (!c.indexed && restBefore(c.b, c.a, p))
}

// randEmissionRel builds a relation of up to n tuples over schema with
// every column uniform in [0, 4), dense enough that joins match often.
func randEmissionRel[T any](s semiring.Semiring[T], r *rand.Rand, schema []int, n int, val func(*rand.Rand) T) *Relation[T] {
	b := NewBuilder(s, schema)
	tuple := make([]int, len(schema))
	for i := 0; i < n; i++ {
		for j := range tuple {
			tuple[j] = r.Intn(4)
		}
		b.Add(tuple, val(r))
	}
	return b.Build()
}

// checkEmission asserts that got is the join the Builder would produce:
// equal to the nested-loop reference, equal to buildFrom over its own
// rows, and strictly increasing with no zero value.
func checkEmission[T any](t *testing.T, s semiring.Semiring[T], name string, got, want *Relation[T]) {
	t.Helper()
	if !Equal(s, got, want) {
		t.Fatalf("%s: join != nested-loop reference\n got=%v %v %v\nwant=%v %v %v",
			name, got, got.rows, got.vals, want, want.rows, want.vals)
	}
	if rebuilt := buildFrom(s, got.schema, slices.Clone(got.rows), slices.Clone(got.vals)); !Equal(s, got, rebuilt) {
		t.Fatalf("%s: join != buildFrom over its own rows", name)
	}
	w := len(got.schema)
	for i := 0; i < got.Len(); i++ {
		if s.IsZero(got.vals[i]) {
			t.Fatalf("%s: row %d holds a zero value", name, i)
		}
		if i > 0 && compareShared(got.Tuple(i-1), got.Tuple(i), w) >= 0 {
			t.Fatalf("%s: rows %d and %d not strictly increasing", name, i-1, i)
		}
	}
}

func checkJoinEmission[T any](t *testing.T, s semiring.Semiring[T], val func(*rand.Rand) T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for _, c := range emissionCases {
		if c.emitsSorted() != c.sorted {
			t.Fatalf("%s: case no longer takes the path it names (sorted emission %v)", c.name, c.emitsSorted())
		}
		for _, n := range []int{0, 1, 9, 60, 200} {
			a := randEmissionRel(s, r, c.a, n, val)
			b := randEmissionRel(s, r, c.b, r.Intn(200), val)
			checkEmission(t, s, c.name, runEmissionCase(s, c, a, b), joinNestedLoop(s, a, b))
		}
	}
}

// TestJoinEmissionMatchesBuilder pins the rule for every emission that
// skips the Builder: it produces exactly the rows and values the Builder
// would. Every Join path runs under each semiring of the
// parallel-equivalence harness.
func TestJoinEmissionMatchesBuilder(t *testing.T) {
	t.Run("bool", func(t *testing.T) {
		checkJoinEmission[bool](t, semiring.Bool{}, func(r *rand.Rand) bool { return r.Intn(4) > 0 }, 401)
	})
	t.Run("count", func(t *testing.T) {
		checkJoinEmission[int64](t, semiring.Count{}, func(r *rand.Rand) int64 { return int64(r.Intn(5)) - 1 }, 402)
	})
	t.Run("sumproduct", func(t *testing.T) {
		checkJoinEmission[float64](t, semiring.SumProduct{}, func(r *rand.Rand) float64 { return r.Float64() }, 403)
	})
	t.Run("minplus", func(t *testing.T) {
		checkJoinEmission[float64](t, semiring.MinPlus{}, func(r *rand.Rand) float64 { return float64(r.Intn(40)) / 8 }, 404)
	})
}

// TestJoinDropsProductsThatWrapToZero pins the listing representation
// where ⊗ of two non-zero values is zero: under semiring.Count the
// products 2³²·2³², 2³²·2³³ and 2³³·2³³ wrap to exactly 0 in int64, and
// every Join path must drop those rows.
func TestJoinDropsProductsThatWrapToZero(t *testing.T) {
	s := semiring.Count{}
	r := rand.New(rand.NewSource(405))
	wrapping := []int64{1 << 32, 1 << 33, 3}
	val := func(r *rand.Rand) int64 { return wrapping[r.Intn(len(wrapping))] }
	one := func(x *Relation[int64]) *Relation[int64] {
		ones := make([]int64, x.Len())
		for i := range ones {
			ones[i] = 1
		}
		return fromSorted(x.schema, x.rows, ones)
	}
	for _, c := range emissionCases {
		a := randEmissionRel(s, r, c.a, 60, val)
		b := randEmissionRel(s, r, c.b, 60, val)
		want := joinNestedLoop(s, a, b)
		// Join emits no duplicate rows, so every matching pair whose
		// product is not a row of want wrapped to zero.
		if pairs := joinNestedLoop(s, one(a), one(b)).Len(); want.Len() >= pairs {
			t.Fatalf("%s: no product wrapped to zero (%d pairs, %d rows)", c.name, pairs, want.Len())
		}
		checkEmission(t, s, c.name, runEmissionCase(s, c, a, b), want)
	}

	// One instance by hand: (0,0)·(0,5) = 2³²·2³² wraps and is dropped.
	ba, bb := NewBuilder[int64](s, []int{0, 1}), NewBuilder[int64](s, []int{1, 2})
	ba.Add([]int{0, 0}, 1<<32)
	ba.Add([]int{1, 0}, 1)
	bb.Add([]int{0, 5}, 1<<32)
	bb.Add([]int{0, 6}, 1)
	got := Join(s, ba.Build(), bb.Build())
	wantRows := []int32{0, 0, 6, 1, 0, 5, 1, 0, 6}
	if !slices.Equal(got.rows, wantRows) || !slices.Equal(got.vals, []int64{1 << 32, 1 << 32, 1}) {
		t.Fatalf("Join kept a wrapped product or lost a row: rows=%v vals=%v", got.rows, got.vals)
	}
}
