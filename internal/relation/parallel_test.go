package relation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/hypergraph"
	"repro/internal/semiring"
)

// The worker-count axis of the kernel equivalence properties: every
// kernel's output must be BIT-identical at every worker and partition
// count — not merely semiring-Equal (whose float comparison tolerates
// re-association) but identical schema, row buffer, and value slices.

func bitIdentical[T comparable](a, b *Relation[T]) bool {
	return slices.Equal(a.schema, b.schema) &&
		slices.Equal(a.rows, b.rows) &&
		slices.Equal(a.vals, b.vals)
}

// floatBitsIdentical is bitIdentical with values compared by their IEEE
// bits, so a ⊕-order change that lands on an equal-comparing but
// different float (±0) still fails.
func floatBitsIdentical(a, b *Relation[float64]) bool {
	return slices.Equal(a.schema, b.schema) && slices.Equal(a.rows, b.rows) &&
		slices.EqualFunc(a.vals, b.vals, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sweepWorkers runs f once per default-pool width 1, 2 and 8.
func sweepWorkers(f func(workers int)) {
	prev := exec.SetWorkers(1)
	defer exec.SetWorkers(prev)
	for _, w := range []int{1, 2, 8} {
		exec.SetWorkers(w)
		f(w)
	}
}

// checkNonPrefix pins the public Join and Semijoin of a non-prefix pair
// at 1/2/8 workers, and joinOrdered's block-split emission at part
// counts small inputs never reach through the size threshold, bit for
// bit against the nested-loop references.
func checkNonPrefix[T comparable](t *testing.T, s semiring.Semiring[T], a, b *Relation[T], label string) {
	t.Helper()
	shared := hypergraph.IntersectSorted(a.schema, b.schema)
	jWant := joinNestedLoop(s, a, b)
	sjWant := semijoinNestedLoop(a, b, shared)
	sweepWorkers(func(w int) {
		if got := Join(s, a, b); !bitIdentical(got, jWant) {
			t.Fatalf("%s workers=%d: Join != nested loop\n got=%v\nwant=%v", label, w, got, jWant)
		}
		if got := Semijoin(s, a, b); !bitIdentical(got, sjWant) {
			t.Fatalf("%s workers=%d: Semijoin != nested loop", label, w)
		}
	})
	aCols, _ := Columns(a.schema, shared)
	bCols, _ := Columns(b.schema, shared)
	ak, bk := orderOn(a, aCols), orderOn(b, bCols)
	for _, parts := range []int{2, 3, 7} {
		if got := joinOrdered(s, a, b, ak, bk, parts); !bitIdentical(got, jWant) {
			t.Fatalf("%s parts=%d: block-split join not bit-identical", label, parts)
		}
	}
}

// nonPrefixPairs are schema shapes whose shared variables do not lead
// both schemas, so Join and Semijoin put both operands in key order
// first. The last two share three variables: their keys are compared
// past the packed head.
var nonPrefixPairs = [][2][]int{
	{{0, 1}, {1, 2}},
	{{1, 2}, {0, 2}},
	{{0, 1, 2}, {2}},
	{{0, 2}, {1, 2}},
	{{0, 1, 3}, {2, 3}},
	{{0, 2, 3, 4}, {1, 2, 3, 4}},
	{{2, 3, 4}, {0, 2, 3, 4}},
}

func checkJoinParallelIdentical[T comparable](t *testing.T, s semiring.Semiring[T], val func(*rand.Rand) T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 25; trial++ {
		for pi, pair := range nonPrefixPairs {
			a := randRelT(s, r, pair[0], 1+r.Intn(40), 2+r.Intn(4), val)
			b := randRelT(s, r, pair[1], 1+r.Intn(40), 2+r.Intn(4), val)
			checkNonPrefix(t, s, a, b, fmt.Sprintf("pair %d trial %d", pi, trial))
		}
	}
}

func TestJoinParallelBitIdenticalBool(t *testing.T) {
	checkJoinParallelIdentical[bool](t, semiring.Bool{}, func(r *rand.Rand) bool { return r.Intn(4) > 0 }, 201)
}

func TestJoinParallelBitIdenticalCount(t *testing.T) {
	checkJoinParallelIdentical[int64](t, semiring.Count{}, func(r *rand.Rand) int64 { return int64(r.Intn(5)) - 1 }, 202)
}

func TestJoinParallelBitIdenticalSumProduct(t *testing.T) {
	// Float values make bit-identity demand the exact sequential
	// ⊕-combination order inside every duplicate group.
	checkJoinParallelIdentical[float64](t, semiring.SumProduct{}, func(r *rand.Rand) float64 { return r.Float64() }, 203)
}

func TestJoinParallelBitIdenticalMinPlus(t *testing.T) {
	checkJoinParallelIdentical[float64](t, semiring.MinPlus{}, func(r *rand.Rand) float64 { return float64(r.Intn(40)) / 8 }, 204)
}

// TestJoinPublicDispatchAboveThreshold drives the public Join above the
// size threshold so the block-split emission engages end to end, and
// checks bit-identity against a single-worker run of the same call.
func TestJoinPublicDispatchAboveThreshold(t *testing.T) {
	s := semiring.SumProduct{}
	r := rand.New(rand.NewSource(205))
	n := parallelMinTuples // a.Len()+b.Len() crosses the threshold
	a := randRelT[float64](s, r, []int{0, 1}, n, 300, func(r *rand.Rand) float64 { return r.Float64() })
	b := randRelT[float64](s, r, []int{1, 2}, n, 300, func(r *rand.Rand) float64 { return r.Float64() })

	prev := exec.SetWorkers(1)
	want := Join(s, a, b)
	exec.SetWorkers(8)
	got := Join(s, a, b)
	exec.SetWorkers(prev)

	if got.Len() == 0 {
		t.Fatal("degenerate test: empty join output")
	}
	if !bitIdentical(got, want) {
		t.Fatalf("8-worker Join not bit-identical to 1-worker Join (n=%d vs %d)", got.Len(), want.Len())
	}
}

// TestNonPrefixWideKeyAboveThreshold joins on three shared variables
// whose first two — the packed head — take only four values, so nearly
// every match is decided past the head, at a size where Join splits its
// emission across the pool. Both probe directions are checked: the long
// side probing the short one, and the short side galloping through the
// long one.
func TestNonPrefixWideKeyAboveThreshold(t *testing.T) {
	s := semiring.Count{}
	r := rand.New(rand.NewSource(209))
	gen := func(schema []int, n int) *Relation[int64] {
		b := NewBuilder[int64](s, schema)
		for i := 0; i < n; i++ {
			// Columns: payload, then shared 2 and 3 (colliding), then shared 4.
			b.Add([]int{r.Intn(1 << 20), r.Intn(2), r.Intn(2), r.Intn(64)}, int64(r.Intn(5))-1)
		}
		return b.Build()
	}
	long := gen([]int{0, 2, 3, 4}, 2*parallelMinTuples) // zero values drop ~1/5
	short := gen([]int{1, 2, 3, 4}, 64)
	if Join(s, long, short).Len() == 0 || Semijoin(s, short, long).Len() == 0 {
		t.Fatal("degenerate test: empty output")
	}
	checkNonPrefix(t, s, long, short, "long⋈short")
	checkNonPrefix(t, s, short, long, "short⋈long")
}

// eliminateFold is the reference EliminateVar: foldGroups over the
// columns that remain once v is gone.
func eliminateFold[T any](s semiring.Semiring[T], r *Relation[T], v int, op semiring.Op[T], domSize int) *Relation[T] {
	return foldGroups(s, r, hypergraph.DiffSorted(r.schema, []int{v}), op, domSize)
}

// projectFold is the reference Project: foldGroups with ⊕ over the
// groups of the kept variables.
func projectFold[T any](s semiring.Semiring[T], r *Relation[T], keep []int) *Relation[T] {
	return foldGroups(s, r, keep, semiring.AddOf(s), 0)
}

// foldGroups makes one pass over r's rows in input order, folding each
// group of the variables keep (sorted) with op and counting its rows,
// then drops product groups short of domSize rows and zero results. It
// keys groups by up to four columns.
func foldGroups[T any](s semiring.Semiring[T], r *Relation[T], keep []int, op semiring.Op[T], domSize int) *Relation[T] {
	cols, _ := Columns(r.schema, keep)
	type group struct {
		key   []int32
		val   T
		count int
	}
	byKey := map[[4]int32]*group{}
	var order []*group
	for i := 0; i < r.Len(); i++ {
		var k [4]int32
		for j, c := range cols {
			k[j] = r.Tuple(i)[c]
		}
		g := byKey[k]
		if g == nil {
			g = &group{key: slices.Clone(k[:len(cols)]), val: op.Identity()}
			byKey[k] = g
			order = append(order, g)
		}
		g.val = op.Combine(g.val, r.vals[i])
		g.count++
	}
	b := NewBuilder(s, keep)
	for _, g := range order {
		if !op.IsProduct() || g.count >= domSize {
			b.AddRow(g.key, g.val)
		}
	}
	return b.Build()
}

// TestEliminateVarParallelBitIdentical eliminates every non-innermost
// variable of 3- and 4-ary SumProduct relations — the re-laid fold, with
// two and three remaining columns — with the sum and the product
// aggregate, at 1/2/8 workers, and compares the float bits against the
// input-order reference fold. Small domains and domSize values around
// the group sizes exercise the product aggregate's domSize rule.
func TestEliminateVarParallelBitIdentical(t *testing.T) {
	s := semiring.SumProduct{}
	add := semiring.AddOf[float64](s)
	mul := semiring.MulOf[float64](s)
	r := rand.New(rand.NewSource(206))
	for trial := 0; trial < 20; trial++ {
		for _, schema := range [][]int{{0, 1, 2}, {0, 1, 2, 3}} {
			rel := randRelT[float64](s, r, schema, 30+r.Intn(120), 2+r.Intn(3),
				func(r *rand.Rand) float64 { return math.Ldexp(1+r.Float64(), r.Intn(40)-20) })
			for _, v := range schema[:len(schema)-1] {
				for _, op := range []semiring.Op[float64]{add, mul} {
					for _, domSize := range []int{1, 2, 3, 1000} {
						want := eliminateFold(s, rel, v, op, domSize)
						sweepWorkers(func(w int) {
							got, err := EliminateVar(s, rel, v, op, domSize)
							if err != nil {
								t.Fatal(err)
							}
							if !floatBitsIdentical(got, want) {
								t.Fatalf("trial %d schema=%v v=%d workers=%d product=%v dom=%d: not bit-identical\n got=%v\nwant=%v",
									trial, schema, v, w, op.IsProduct(), domSize, got, want)
							}
						})
					}
				}
			}
		}
	}
}

// TestEliminateVarPublicDispatchAboveThreshold crosses the threshold
// through the public EliminateVar and compares worker counts.
func TestEliminateVarPublicDispatchAboveThreshold(t *testing.T) {
	s := semiring.Count{}
	add := semiring.AddOf[int64](s)
	r := rand.New(rand.NewSource(207))
	rel := randRelT[int64](s, r, []int{0, 1, 2}, parallelMinTuples+100, 40,
		func(r *rand.Rand) int64 { return int64(r.Intn(7)) - 2 })

	prev := exec.SetWorkers(1)
	want, err := EliminateVar(s, rel, 0, add, 1000)
	exec.SetWorkers(8)
	got, err2 := EliminateVar(s, rel, 0, add, 1000)
	exec.SetWorkers(prev)
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	if got.Len() == 0 {
		t.Fatal("degenerate test: empty elimination output")
	}
	if !bitIdentical(got, want) {
		t.Fatal("8-worker EliminateVar not bit-identical to 1-worker")
	}
	if ref := eliminateFold(s, rel, 0, add, 1000); !bitIdentical(got, ref) {
		t.Fatal("EliminateVar above the threshold != reference fold")
	}
}
