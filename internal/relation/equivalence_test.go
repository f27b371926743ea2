package relation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/semiring"
)

// Equivalence property tests: the dispatching Join/Semijoin at 1/2/8
// workers and the merge paths must all agree with the O(n·m) nested-loop
// reference, across semirings (Boolean, counting, min-plus) and across
// schema shapes that force every strategy:
//
//	prefix-shared ordered   → merge join, direct sorted emission
//	prefix-shared unordered → merge join through the Builder
//	non-prefix shared ≤ 2   → key-ordered walk on packed keys
//	non-prefix shared > 2   → key-ordered walk, compared past the packed head
//	disjoint schemas        → cartesian product
//	identical schemas       → full-key intersection

// schemaPairs enumerates the shapes described above.
var schemaPairs = [][2][]int{
	{{0, 1}, {0, 2}},             // merge, ordered
	{{0, 1, 2}, {0, 1, 3}},       // merge p=2, ordered
	{{0, 3}, {0, 2}},             // merge, unordered (aRest > bRest)
	{{0, 1}, {1, 2}},             // non-prefix, packed key
	{{1, 2}, {0, 2}},             // non-prefix, packed key
	{{0}, {1}},                   // cartesian
	{{0, 1}, {0, 1}},             // identical schemas
	{{0, 1, 2, 3}, {0, 1, 2, 4}}, // merge p=3 (beyond MaxPacked)
	{{1, 2, 3, 4}, {0, 2, 3, 4}}, // non-prefix, 3 shared
	{{0, 1, 2}, {2}},             // message-style: b ⊆ a, non-prefix
	{{0, 1, 2}, {0}},             // message-style: b ⊆ a, prefix
}

func randRelT[T any](s semiring.Semiring[T], r *rand.Rand, schema []int, n, dom int, val func(*rand.Rand) T) *Relation[T] {
	b := NewBuilder(s, schema)
	tuple := make([]int, len(schema))
	for i := 0; i < n; i++ {
		for j := range tuple {
			tuple[j] = r.Intn(dom)
		}
		b.Add(tuple, val(r))
	}
	return b.Build()
}

// joinNestedLoop is the O(|a|·|b|) reference implementation of Join for the
// equivalence property tests: no index, no merge — just the definition.
func joinNestedLoop[T any](s semiring.Semiring[T], a, b *Relation[T]) *Relation[T] {
	shared := hypergraph.IntersectSorted(a.schema, b.schema)
	outSchema := hypergraph.UnionSorted(a.schema, b.schema)
	srcs := outputSrcs(outSchema, a.schema, b.schema)
	aCols, _ := Columns(a.schema, shared)
	bCols, _ := Columns(b.schema, shared)
	out := NewBuilder(s, outSchema)
	scratch := make([]int32, len(outSchema))
	for i := 0; i < a.Len(); i++ {
		ta := a.Tuple(i)
		for j := 0; j < b.Len(); j++ {
			tb := b.Tuple(j)
			match := true
			for k := range shared {
				if ta[aCols[k]] != tb[bCols[k]] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			for k, sc := range srcs {
				if sc.fromA {
					scratch[k] = ta[sc.col]
				} else {
					scratch[k] = tb[sc.col]
				}
			}
			out.AddRow(scratch, s.Mul(a.vals[i], b.vals[j]))
		}
	}
	return out.Build()
}

// semijoinNestedLoop is the reference semijoin: keep a's tuples that
// match some b tuple on the shared columns.
func semijoinNestedLoop[T any](a, b *Relation[T], shared []int) *Relation[T] {
	aCols, _ := Columns(a.schema, shared)
	bCols, _ := Columns(b.schema, shared)
	out := &Relation[T]{schema: a.schema}
	for i := 0; i < a.Len(); i++ {
		ta := a.Tuple(i)
		for j := 0; j < b.Len(); j++ {
			tb := b.Tuple(j)
			match := true
			for k := range shared {
				if ta[aCols[k]] != tb[bCols[k]] {
					match = false
					break
				}
			}
			if match {
				out.rows = append(out.rows, ta...)
				out.vals = append(out.vals, a.vals[i])
				break
			}
		}
	}
	return out
}

func checkJoinEquivalence[T any](t *testing.T, s semiring.Semiring[T], val func(*rand.Rand) T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 40; trial++ {
		for pi, pair := range schemaPairs {
			a := randRelT(s, r, pair[0], 1+r.Intn(12), 2+r.Intn(3), val)
			b := randRelT(s, r, pair[1], 1+r.Intn(12), 2+r.Intn(3), val)
			shared := hypergraph.IntersectSorted(a.Schema(), b.Schema())

			want := joinNestedLoop(s, a, b)
			sjWant := semijoinNestedLoop(a, b, shared)
			sweepWorkers(func(w int) {
				if got := Join(s, a, b); !Equal(s, got, want) {
					t.Fatalf("pair %d trial %d workers %d: Join != nested-loop\n a=%v\n b=%v\n got=%v\n want=%v",
						pi, trial, w, a, b, got, want)
				}
				if got := Semijoin(s, a, b); !Equal(s, got, sjWant) {
					t.Fatalf("pair %d trial %d workers %d: Semijoin != nested-loop\n a=%v\n b=%v", pi, trial, w, a, b)
				}
			})
			if isPrefixOf(shared, a.Schema()) && isPrefixOf(shared, b.Schema()) {
				if got := joinMerge(s, a, b, len(shared)); !Equal(s, got, want) {
					t.Fatalf("pair %d trial %d: merge join != nested-loop", pi, trial)
				}
				if got := semijoinMerge(a, b, len(shared)); !Equal(s, got, sjWant) {
					t.Fatalf("pair %d trial %d: merge semijoin != nested-loop", pi, trial)
				}
			}
		}
	}
}

func TestJoinStrategyEquivalenceBool(t *testing.T) {
	checkJoinEquivalence[bool](t, semiring.Bool{}, func(r *rand.Rand) bool { return r.Intn(4) > 0 }, 101)
}

func TestJoinStrategyEquivalenceCount(t *testing.T) {
	checkJoinEquivalence[int64](t, semiring.Count{}, func(r *rand.Rand) int64 { return int64(r.Intn(5)) }, 102)
}

func TestJoinStrategyEquivalenceMinPlus(t *testing.T) {
	checkJoinEquivalence[float64](t, semiring.MinPlus{}, func(r *rand.Rand) float64 { return float64(r.Intn(20)) }, 103)
}

// TestJoinMergeOrientation pins the operand swap: when every non-shared
// variable of b precedes every non-shared variable of a, Join must still
// return sorted output.
func TestJoinMergeOrientation(t *testing.T) {
	s := semiring.Bool{}
	r := rand.New(rand.NewSource(7))
	a := randRelT[bool](s, r, []int{0, 3}, 10, 3, func(*rand.Rand) bool { return true })
	b := randRelT[bool](s, r, []int{0, 2}, 10, 3, func(*rand.Rand) bool { return true })
	got := Join(s, a, b)
	want := joinNestedLoop(s, a, b)
	if !Equal(s, got, want) {
		t.Fatalf("swapped-orientation join mismatch:\n got=%v\n want=%v", got, want)
	}
	for i := 1; i < got.Len(); i++ {
		if compareShared(got.Tuple(i-1), got.Tuple(i), got.Arity()) > 0 {
			t.Fatalf("join output not sorted at %d", i)
		}
	}
}

// renameVars rebuilds r with schema column i renamed to vars[i].
func renameVars[T any](s semiring.Semiring[T], r *Relation[T], vars []int) *Relation[T] {
	b := NewBuilder(s, vars)
	tuple := make([]int, len(vars))
	for i := 0; i < r.Len(); i++ {
		for k, x := range r.Tuple(i) {
			tuple[k] = int(x)
		}
		b.Add(tuple, r.vals[i])
	}
	return b.Build()
}

// TestProjectPrefixVsGeneral checks the contiguous-run projection fast
// path against the builder path on the same inputs.
func TestProjectPrefixVsGeneral(t *testing.T) {
	s := semiring.SumProduct{}
	r := rand.New(rand.NewSource(11))
	rel := randRelT[float64](s, r, []int{0, 1, 2}, 60, 3, func(r *rand.Rand) float64 { return 1 + r.Float64() })
	// Prefix projection (fast path) must equal projecting through an
	// order-scrambling rename and back (builder path).
	p1, err := Project(s, rel, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ren := renameVars(s, rel, []int{5, 1, 2}) // 0→5 scrambles column order
	p2, err := Project(s, ren, []int{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	back := renameVars(s, p2, []int{1, 0}) // p2's schema is [1 5]
	if !Equal(s, p1, back) {
		t.Fatalf("prefix projection != general projection:\n %v\n %v", p1, back)
	}
}

// TestEliminateVarPathsAgree eliminates each variable of a 4-ary
// relation — the innermost fold and the re-laid fold with three
// remaining columns — and checks against Project onto the rest.
func TestEliminateVarPathsAgree(t *testing.T) {
	s := semiring.SumProduct{}
	add := semiring.AddOf[float64](s)
	r := rand.New(rand.NewSource(13))
	rel := randRelT[float64](s, r, []int{0, 1, 2, 3}, 80, 3, func(r *rand.Rand) float64 { return 1 + r.Float64() })
	for _, v := range []int{0, 1, 2, 3} {
		got, err := EliminateVar(s, rel, v, add, 100)
		if err != nil {
			t.Fatal(err)
		}
		rest := hypergraph.DiffSorted(rel.Schema(), []int{v})
		want, err := Project(s, rel, rest)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(s, got, want) {
			t.Fatalf("EliminateVar(%d) != Project onto rest:\n got=%v\n want=%v", v, got, want)
		}
	}
}

// fuzzCoords are the column values the Builder fuzzer draws from: few
// enough to breed duplicates, spread across every byte of a packed key
// and both sides of the int32 sign bias.
var fuzzCoords = [8]int32{math.MinInt32, -65536, -1, 0, 1, 255, 256, math.MaxInt32}

// FuzzBuilderDuplicateMerge fuzzes Builder's duplicate merging against a
// map-based reference aggregation. The first byte selects arity 1, 2
// (the packed radix path) or 3 (the comparator path); each following
// group of arity bytes is one tuple. The counting pass checks zero-drop;
// the sum-product pass compares float bits against a reference folding
// each tuple's duplicates in input order, so an unstable sort — any
// reordering of a duplicate group — fails.
func FuzzBuilderDuplicateMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 1, 2, 1, 5, 2, 2, 5, 1})
	f.Add([]byte{255, 0, 255, 0, 255, 0})
	f.Add([]byte{0, 7, 0, 7, 0, 7, 1, 0, 7, 1})
	f.Add([]byte{1, 3, 4, 7, 0, 3, 4, 0, 7, 3, 4})
	f.Add([]byte{7})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		arity := 1 + int(data[0])%3
		data = data[1:]
		schema := []int{0, 1, 2}[:arity]
		type key [3]int32
		cs, ss := semiring.Count{}, semiring.SumProduct{}
		cb := NewBuilder[int64](cs, schema)
		sb := NewBuilder[float64](ss, schema)
		cref := make(map[key]int64)
		sref := make(map[key]float64)
		tup := make([]int, arity)
		for i := 0; i+arity <= len(data); i += arity {
			var k key
			for j := range tup {
				k[j] = fuzzCoords[data[i+j]&7]
				tup[j] = int(k[j])
			}
			hi := int(data[i] >> 3) // 0..31, independent of the key bits
			// Counting values in {-1, 0, 1} exercise zero-drop.
			cval := int64(hi%3) - 1
			cb.Add(tup, cval)
			cref[k] += cval
			// Sum-product magnitudes far apart make the float addition
			// order visible in the result bits.
			sval := math.Ldexp(1+float64(i%7)/7, hi-16)
			sb.Add(tup, sval)
			if prev, ok := sref[k]; ok {
				sref[k] = ss.Add(prev, sval)
			} else {
				sref[k] = sval
			}
		}
		keyOf := func(row []int32) key {
			var k key
			copy(k[:], row)
			return k
		}
		checkSorted := func(n int, tuple func(int) []int32) {
			for i := 1; i < n; i++ {
				if compareShared(tuple(i-1), tuple(i), arity) >= 0 {
					t.Fatalf("arity %d: Build output not strictly sorted at %d", arity, i)
				}
			}
		}

		crel := cb.Build()
		nonzero := 0
		for _, v := range cref {
			if v != 0 {
				nonzero++
			}
		}
		if crel.Len() != nonzero {
			t.Fatalf("arity %d: Build kept %d tuples, reference has %d non-zero groups", arity, crel.Len(), nonzero)
		}
		for i := 0; i < crel.Len(); i++ {
			if want := cref[keyOf(crel.Tuple(i))]; want != crel.Value(i) {
				t.Fatalf("arity %d: tuple %v: merged value %d, reference %d", arity, crel.Tuple(i), crel.Value(i), want)
			}
		}
		checkSorted(crel.Len(), crel.Tuple)
		checkValueRange(t, crel)

		srel := sb.Build()
		if srel.Len() != len(sref) {
			t.Fatalf("arity %d: sum-product Build kept %d tuples, reference has %d groups", arity, srel.Len(), len(sref))
		}
		for i := 0; i < srel.Len(); i++ {
			want := sref[keyOf(srel.Tuple(i))]
			if math.Float64bits(want) != math.Float64bits(srel.Value(i)) {
				t.Fatalf("arity %d: tuple %v: merged value %v, input-order fold %v", arity, srel.Tuple(i), srel.Value(i), want)
			}
		}
		checkSorted(srel.Len(), srel.Tuple)
		checkValueRange(t, srel)
	})
}

// checkValueRange asserts that a Builder-built relation's ValueRange is
// the least and greatest value of a scan over all its cells, and is
// unknown exactly when it has no cell.
func checkValueRange[T any](t *testing.T, r *Relation[T]) {
	t.Helper()
	lo, hi, ok := r.ValueRange()
	if ok != (len(r.rows) > 0) {
		t.Fatalf("ValueRange ok=%v for a relation with %d cells", ok, len(r.rows))
	}
	if ok && (lo != slices.Min(r.rows) || hi != slices.Max(r.rows)) {
		t.Fatalf("ValueRange = [%d, %d], scan gives [%d, %d]", lo, hi, slices.Min(r.rows), slices.Max(r.rows))
	}
}

// TestBuilderHintCapacity sanity-checks that the hint presizes without
// changing semantics.
func TestBuilderHintCapacity(t *testing.T) {
	s := semiring.Bool{}
	b1 := NewBuilder[bool](s, []int{0, 1})
	b2 := NewBuilderHint[bool](s, []int{0, 1}, 64)
	for i := 0; i < 40; i++ {
		b1.AddOne(i%5, i%7)
		b2.AddOne(i%5, i%7)
	}
	if len(b2.vals) != 40 {
		t.Fatalf("builder holds %d tuples, want 40", len(b2.vals))
	}
	if !Equal(s, b1.Build(), b2.Build()) {
		t.Fatal("hinted builder built a different relation")
	}
}

// TestJoinWithUnit pins the ⊗-identity: Unit ⋈ R = R with values scaled
// by the unit's value.
func TestJoinWithUnit(t *testing.T) {
	s := semiring.SumProduct{}
	b := NewBuilder[float64](s, []int{0, 1})
	b.Add([]int{1, 2}, 0.5)
	b.Add([]int{3, 4}, 0.25)
	r := b.Build()
	for name, u := range map[string]*Relation[float64]{
		"left":  Join(s, Unit(s, 2.0), r),
		"right": Join(s, r, Unit(s, 2.0)),
	} {
		if u.Len() != 2 {
			t.Fatalf("%s unit join: Len = %d, want 2", name, u.Len())
		}
		if u.Value(0) != 1.0 || u.Value(1) != 0.5 {
			t.Fatalf("%s unit join values = %v, %v; want 1, 0.5", name, u.Value(0), u.Value(1))
		}
	}
}

func ExampleJoin() {
	s := semiring.Bool{}
	r := NewBuilder[bool](s, []int{0, 1})
	r.AddOne(1, 1)
	r.AddOne(2, 1)
	q := NewBuilder[bool](s, []int{0, 2})
	q.AddOne(1, 5)
	j := Join(s, r.Build(), q.Build())
	fmt.Println(j.Len(), j.Tuple(0))
	// Output: 1 [1 1 5]
}
