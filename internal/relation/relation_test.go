package relation

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/semiring"
)

var sb = semiring.Bool{}
var sp = semiring.SumProduct{}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder[float64](sp, []int{0, 1})
	b.Add([]int{1, 2}, 0.5)
	b.Add([]int{1, 2}, 0.25)
	b.Add([]int{3, 4}, 1)
	r := b.Build()
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if got := r.Value(0); got != 0.75 {
		t.Errorf("merged value = %v, want 0.75", got)
	}
}

func TestBuilderDropsZeros(t *testing.T) {
	b := NewBuilder[bool](sb, []int{0})
	b.Add([]int{1}, false)
	b.Add([]int{2}, true)
	r := b.Build()
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (zero tuples dropped)", r.Len())
	}
	if got := r.Tuple(0)[0]; got != 2 {
		t.Errorf("surviving tuple = %d, want 2", got)
	}
}

func TestBuilderNormalizesSchemaOrder(t *testing.T) {
	// Schema given as (5, 2): columns must land under sorted ids (2, 5).
	b := NewBuilder[bool](sb, []int{5, 2})
	b.AddOne(10, 20) // var5=10, var2=20
	r := b.Build()
	if !reflect.DeepEqual(r.Schema(), []int{2, 5}) {
		t.Fatalf("schema = %v, want [2 5]", r.Schema())
	}
	if r.Tuple(0)[0] != 20 || r.Tuple(0)[1] != 10 {
		t.Errorf("tuple = %v, want [20 10]", r.Tuple(0))
	}
}

func TestBuilderPanicsOnDuplicateVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate schema variable")
		}
	}()
	NewBuilder[bool](sb, []int{1, 1})
}

func TestBuilderPanicsOnArityMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on tuple arity mismatch")
		}
	}()
	NewBuilder[bool](sb, []int{0, 1}).AddOne(1)
}

func TestTuplesSortedDeterministically(t *testing.T) {
	b := NewBuilder[bool](sb, []int{0, 1})
	b.AddOne(3, 1)
	b.AddOne(1, 2)
	b.AddOne(1, 1)
	r := b.Build()
	want := [][]int32{{1, 1}, {1, 2}, {3, 1}}
	for i, w := range want {
		if !reflect.DeepEqual(r.Tuple(i), w) {
			t.Errorf("tuple %d = %v, want %v", i, r.Tuple(i), w)
		}
	}
}

func TestProjectMergesWithAdd(t *testing.T) {
	b := NewBuilder[float64](sp, []int{0, 1})
	b.Add([]int{1, 10}, 0.5)
	b.Add([]int{1, 20}, 0.25)
	b.Add([]int{2, 10}, 1)
	r := b.Build()
	p, err := Project(sp, r, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	if got := p.Value(0); got != 0.75 {
		t.Errorf("π value for 1 = %v, want 0.75", got)
	}
}

func TestProjectUnknownVariable(t *testing.T) {
	r := Empty[bool]([]int{0, 1})
	if _, err := Project(sb, r, []int{7}); err == nil {
		t.Error("expected error projecting onto unknown variable")
	}
}

func TestJoinNatural(t *testing.T) {
	// R(A,B) = {(1,1),(1,2),(2,1)}; S(B,C) = {(1,5),(2,6)}.
	r := NewBuilder[bool](sb, []int{0, 1})
	r.AddOne(1, 1)
	r.AddOne(1, 2)
	r.AddOne(2, 1)
	s := NewBuilder[bool](sb, []int{1, 2})
	s.AddOne(1, 5)
	s.AddOne(2, 6)
	j := Join(sb, r.Build(), s.Build())
	if !reflect.DeepEqual(j.Schema(), []int{0, 1, 2}) {
		t.Fatalf("join schema = %v", j.Schema())
	}
	want := [][]int32{{1, 1, 5}, {1, 2, 6}, {2, 1, 5}}
	if j.Len() != len(want) {
		t.Fatalf("join size = %d, want %d", j.Len(), len(want))
	}
	for i, w := range want {
		if !reflect.DeepEqual(j.Tuple(i), w) {
			t.Errorf("join tuple %d = %v, want %v", i, j.Tuple(i), w)
		}
	}
}

func TestJoinMultipliesAnnotations(t *testing.T) {
	r := NewBuilder[float64](sp, []int{0})
	r.Add([]int{1}, 0.5)
	s := NewBuilder[float64](sp, []int{0})
	s.Add([]int{1}, 0.25)
	j := Join(sp, r.Build(), s.Build())
	if j.Len() != 1 || j.Value(0) != 0.125 {
		t.Errorf("join value = %v, want 0.125", j.Value(0))
	}
}

func TestJoinDisjointSchemasIsCartesian(t *testing.T) {
	r := NewBuilder[bool](sb, []int{0})
	r.AddOne(1)
	r.AddOne(2)
	s := NewBuilder[bool](sb, []int{1})
	s.AddOne(7)
	s.AddOne(8)
	j := Join(sb, r.Build(), s.Build())
	if j.Len() != 4 {
		t.Errorf("cartesian size = %d, want 4", j.Len())
	}
}

func TestSemijoinFilters(t *testing.T) {
	r := NewBuilder[bool](sb, []int{0, 1})
	r.AddOne(1, 10)
	r.AddOne(2, 20)
	r.AddOne(3, 30)
	s := NewBuilder[bool](sb, []int{0, 2})
	s.AddOne(1, 99)
	s.AddOne(3, 99)
	out := Semijoin(sb, r.Build(), s.Build())
	if out.Len() != 2 {
		t.Fatalf("semijoin size = %d, want 2", out.Len())
	}
	if out.Tuple(0)[0] != 1 || out.Tuple(1)[0] != 3 {
		t.Errorf("semijoin kept wrong tuples")
	}
}

func TestEliminateVarSum(t *testing.T) {
	b := NewBuilder[float64](sp, []int{0, 1})
	b.Add([]int{1, 10}, 0.5)
	b.Add([]int{1, 20}, 0.25)
	b.Add([]int{2, 10}, 2)
	r := b.Build()
	out, err := EliminateVar(sp, r, 1, semiring.AddOf[float64](sp), 100)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("Len = %d, want 2", out.Len())
	}
	if out.Value(0) != 0.75 || out.Value(1) != 2 {
		t.Errorf("sums = %v, %v, want 0.75, 2", out.Value(0), out.Value(1))
	}
}

func TestEliminateVarProductAnnihilation(t *testing.T) {
	// Product aggregate over Dom of size 2: group x=1 has both domain
	// values listed (product survives); group x=2 misses y=1 (an
	// implicit zero annihilates it).
	b := NewBuilder[float64](sp, []int{0, 1})
	b.Add([]int{1, 0}, 3)
	b.Add([]int{1, 1}, 4)
	b.Add([]int{2, 0}, 5)
	r := b.Build()
	out, err := EliminateVar(sp, r, 1, semiring.MulOf[float64](sp), 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (annihilated group dropped)", out.Len())
	}
	if out.Value(0) != 12 {
		t.Errorf("product = %v, want 12", out.Value(0))
	}
}

func TestEliminateVarUnknown(t *testing.T) {
	r := Empty[float64]([]int{0})
	if _, err := EliminateVar(sp, r, 9, semiring.AddOf[float64](sp), 2); err == nil {
		t.Error("expected error eliminating unknown variable")
	}
}

func TestScalarValue(t *testing.T) {
	u := Unit[bool](sb, true)
	v, err := ScalarValue(sb, u)
	if err != nil || v != true {
		t.Errorf("ScalarValue(unit true) = %v, %v", v, err)
	}
	e := Unit[bool](sb, false) // zero value: empty scalar relation
	v, err = ScalarValue(sb, e)
	if err != nil || v != false {
		t.Errorf("ScalarValue(unit false) = %v, %v", v, err)
	}
	if _, err := ScalarValue(sb, Empty[bool]([]int{0})); err == nil {
		t.Error("expected error for non-scalar relation")
	}
}

func TestRename(t *testing.T) {
	b := NewBuilder[bool](sb, []int{0, 1})
	b.AddOne(7, 8)
	r := b.Build()
	out, err := Rename(sb, r, map[int]int{0: 5, 1: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Schema(), []int{2, 5}) {
		t.Fatalf("renamed schema = %v, want [2 5]", out.Schema())
	}
	// var1 (value 8) -> var2; var0 (value 7) -> var5.
	if out.Tuple(0)[0] != 8 || out.Tuple(0)[1] != 7 {
		t.Errorf("renamed tuple = %v, want [8 7]", out.Tuple(0))
	}
	if _, err := Rename(sb, r, map[int]int{0: 1}); err == nil {
		t.Error("expected error for collapsing rename")
	}
}

func TestEqual(t *testing.T) {
	a := NewBuilder[bool](sb, []int{0})
	a.AddOne(1)
	a.AddOne(2)
	b := NewBuilder[bool](sb, []int{0})
	b.AddOne(2)
	b.AddOne(1)
	if !Equal(sb, a.Build(), b.Build()) {
		t.Error("relations with the same tuples should be equal regardless of insertion order")
	}
	c := NewBuilder[bool](sb, []int{0})
	c.AddOne(1)
	if Equal(sb, a.Build(), c.Build()) {
		t.Error("relations of different sizes compared equal")
	}
}

// TestJoinAlgebraicProperties property-tests commutativity and
// associativity of the natural join over random Boolean relations, and
// the semijoin identity R ⋉ S = π_sch(R)(R ⋈ π_shared(S)) on keys.
func TestJoinAlgebraicProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	randRel := func(schema []int, n, dom int) *Relation[bool] {
		b := NewBuilder[bool](sb, schema)
		for i := 0; i < n; i++ {
			tuple := make([]int, len(schema))
			for j := range tuple {
				tuple[j] = r.Intn(dom)
			}
			b.AddOne(tuple...)
		}
		return b.Build()
	}
	for trial := 0; trial < 50; trial++ {
		a := randRel([]int{0, 1}, 1+r.Intn(8), 3)
		b := randRel([]int{1, 2}, 1+r.Intn(8), 3)
		c := randRel([]int{0, 2}, 1+r.Intn(8), 3)

		ab := Join(sb, a, b)
		ba := Join(sb, b, a)
		if !Equal(sb, ab, ba) {
			t.Fatalf("join not commutative")
		}
		abc1 := Join(sb, ab, c)
		abc2 := Join(sb, a, Join(sb, b, c))
		if !Equal(sb, abc1, abc2) {
			t.Fatalf("join not associative")
		}

		// Semijoin vs. join-then-project (set semantics on Booleans).
		sj := Semijoin(sb, a, b)
		jp, err := Project(sb, Join(sb, a, b), a.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(sb, sj, jp) {
			t.Fatalf("semijoin != project(join) on Boolean semiring\n a=%v\n b=%v", a, b)
		}
	}
}

// TestProjectionCommutesWithSum checks Σ_B Σ_C R = Σ_C Σ_B R: eliminating
// bound variables in either order agrees for a semiring aggregate
// (Theorem G.1, same-operator case).
func TestProjectionCommutesWithSum(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	add := semiring.AddOf[float64](sp)
	for trial := 0; trial < 40; trial++ {
		b := NewBuilder[float64](sp, []int{0, 1, 2})
		n := 1 + r.Intn(12)
		for i := 0; i < n; i++ {
			b.Add([]int{r.Intn(3), r.Intn(3), r.Intn(3)}, float64(1+r.Intn(4)))
		}
		rel := b.Build()
		e1, err := EliminateVar(sp, rel, 1, add, 3)
		if err != nil {
			t.Fatal(err)
		}
		e12, err := EliminateVar(sp, e1, 2, add, 3)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := EliminateVar(sp, rel, 2, add, 3)
		if err != nil {
			t.Fatal(err)
		}
		e21, err := EliminateVar(sp, e2, 1, add, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(sp, e12, e21) {
			t.Fatalf("sum-out order changed the result")
		}
	}
}

// TestColumnsVerifiesMembership pins Columns' hardening: columns come
// back in the order the variables are listed, and a variable missing
// from the schema surfaces as an error, not as a silently wrong column
// index.
func TestColumnsVerifiesMembership(t *testing.T) {
	schema := []int{0, 2, 5, 9}
	for _, c := range []struct{ vs, want []int }{
		{[]int{5, 0}, []int{2, 0}},
		{[]int{2, 9}, []int{1, 3}},
		{[]int{}, []int{}},
	} {
		if cols, err := Columns(schema, c.vs); err != nil || !reflect.DeepEqual(cols, c.want) {
			t.Errorf("Columns(%v, %v) = %v, %v; want %v, nil", schema, c.vs, cols, err, c.want)
		}
	}
	for _, vs := range [][]int{{1}, {6}, {-1}, {10}, {0, 3}} {
		if _, err := Columns(schema, vs); err == nil {
			t.Errorf("Columns(%v, %v): expected error", schema, vs)
		}
	}
}
