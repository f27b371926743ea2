package semiring

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkLaws verifies the commutative-semiring laws of s on values drawn by
// gen. Floating-point semirings are exercised with values for which the
// laws hold exactly or within the semiring's Equal tolerance.
func checkLaws[T any](t *testing.T, name string, s Semiring[T], gen func(r *rand.Rand) T) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		if !s.Equal(s.Add(a, b), s.Add(b, a)) {
			t.Fatalf("%s: add not commutative: %s %s", name, s.Format(a), s.Format(b))
		}
		if !s.Equal(s.Mul(a, b), s.Mul(b, a)) {
			t.Fatalf("%s: mul not commutative: %s %s", name, s.Format(a), s.Format(b))
		}
		if !s.Equal(s.Add(s.Add(a, b), c), s.Add(a, s.Add(b, c))) {
			t.Fatalf("%s: add not associative", name)
		}
		if !s.Equal(s.Mul(s.Mul(a, b), c), s.Mul(a, s.Mul(b, c))) {
			t.Fatalf("%s: mul not associative", name)
		}
		if !s.Equal(s.Add(a, s.Zero()), a) {
			t.Fatalf("%s: zero not additive identity for %s", name, s.Format(a))
		}
		if !s.Equal(s.Mul(a, s.One()), a) {
			t.Fatalf("%s: one not multiplicative identity for %s", name, s.Format(a))
		}
		if !s.Equal(s.Mul(a, s.Zero()), s.Zero()) {
			t.Fatalf("%s: zero not annihilating for %s", name, s.Format(a))
		}
		lhs := s.Mul(a, s.Add(b, c))
		rhs := s.Add(s.Mul(a, b), s.Mul(a, c))
		if !s.Equal(lhs, rhs) {
			t.Fatalf("%s: mul does not distribute over add: a=%s b=%s c=%s lhs=%s rhs=%s",
				name, s.Format(a), s.Format(b), s.Format(c), s.Format(lhs), s.Format(rhs))
		}
		if s.IsZero(a) != s.Equal(a, s.Zero()) {
			t.Fatalf("%s: IsZero inconsistent with Equal(Zero) for %s", name, s.Format(a))
		}
	}
}

func TestBoolLaws(t *testing.T) {
	checkLaws[bool](t, "Bool", Bool{}, func(r *rand.Rand) bool { return r.Intn(2) == 1 })
}

func TestF2Laws(t *testing.T) {
	checkLaws[byte](t, "F2", F2{}, func(r *rand.Rand) byte { return byte(r.Intn(2)) })
}

func TestSumProductLaws(t *testing.T) {
	// Small non-negative integers keep float arithmetic exact.
	checkLaws[float64](t, "SumProduct", SumProduct{}, func(r *rand.Rand) float64 {
		return float64(r.Intn(64))
	})
}

func TestSumProductLawsFractional(t *testing.T) {
	// Dyadic rationals: distributivity is exact in binary floating point.
	checkLaws[float64](t, "SumProduct/dyadic", SumProduct{}, func(r *rand.Rand) float64 {
		return float64(r.Intn(256)) / 16.0
	})
}

func TestMinPlusLaws(t *testing.T) {
	checkLaws[float64](t, "MinPlus", MinPlus{}, func(r *rand.Rand) float64 {
		if r.Intn(8) == 0 {
			return math.Inf(1)
		}
		return float64(r.Intn(100))
	})
}

func TestMaxTimesLaws(t *testing.T) {
	checkLaws[float64](t, "MaxTimes", MaxTimes{}, func(r *rand.Rand) float64 {
		return float64(r.Intn(64))
	})
}

func TestCountLaws(t *testing.T) {
	checkLaws[int64](t, "Count", Count{}, func(r *rand.Rand) int64 {
		return int64(r.Intn(1000)) - 500
	})
}

func TestBoolTruthTable(t *testing.T) {
	s := Bool{}
	cases := []struct {
		a, b     bool
		add, mul bool
	}{
		{false, false, false, false},
		{false, true, true, false},
		{true, false, true, false},
		{true, true, true, true},
	}
	for _, c := range cases {
		if got := s.Add(c.a, c.b); got != c.add {
			t.Errorf("Add(%v,%v) = %v, want %v", c.a, c.b, got, c.add)
		}
		if got := s.Mul(c.a, c.b); got != c.mul {
			t.Errorf("Mul(%v,%v) = %v, want %v", c.a, c.b, got, c.mul)
		}
	}
}

func TestF2IsField(t *testing.T) {
	s := F2{}
	// 1 is its own additive inverse: characteristic 2.
	if got := s.Add(1, 1); got != 0 {
		t.Errorf("1+1 = %d over F2, want 0", got)
	}
	if got := s.Mul(1, 1); got != 1 {
		t.Errorf("1*1 = %d over F2, want 1", got)
	}
}

func TestMinPlusIdentities(t *testing.T) {
	s := MinPlus{}
	if !math.IsInf(s.Zero(), 1) {
		t.Errorf("MinPlus zero = %v, want +Inf", s.Zero())
	}
	if s.One() != 0 {
		t.Errorf("MinPlus one = %v, want 0", s.One())
	}
	if got := s.Add(3, 7); got != 3 {
		t.Errorf("min(3,7) = %v", got)
	}
	if got := s.Mul(3, 7); got != 10 {
		t.Errorf("3+7 = %v", got)
	}
}

func TestApproxEqualTolerance(t *testing.T) {
	s := SumProduct{}
	a := 0.1 + 0.2
	b := 0.3
	if !s.Equal(a, b) {
		t.Errorf("SumProduct.Equal(%v, %v) = false, want true (tolerant compare)", a, b)
	}
	if s.Equal(1.0, 1.001) {
		t.Errorf("SumProduct.Equal(1, 1.001) = true, want false")
	}
	if !s.Equal(math.Inf(1), math.Inf(1)) {
		t.Errorf("Equal(+Inf, +Inf) = false, want true")
	}
	if s.Equal(math.Inf(1), 1e300) {
		t.Errorf("Equal(+Inf, 1e300) = true, want false")
	}
}

func TestAddOfOp(t *testing.T) {
	op := AddOf[bool](Bool{})
	if op.IsProduct() {
		t.Fatal("AddOf reported IsProduct")
	}
	if op.Identity() != false {
		t.Fatal("AddOf(Bool).Identity() != false")
	}
	if !op.Combine(false, true) {
		t.Fatal("AddOf(Bool).Combine(false,true) != true")
	}
}

func TestMulOfOp(t *testing.T) {
	op := MulOf[float64](SumProduct{})
	if !op.IsProduct() {
		t.Fatal("MulOf did not report IsProduct")
	}
	if op.Identity() != 1 {
		t.Fatal("MulOf(SumProduct).Identity() != 1")
	}
	if got := op.Combine(3, 4); got != 12 {
		t.Fatalf("MulOf(SumProduct).Combine(3,4) = %v, want 12", got)
	}
}

// TestQuickBoolDeMorganish uses testing/quick to confirm the Boolean
// semiring agrees with Go's built-in operators on arbitrary inputs.
func TestQuickBoolDeMorganish(t *testing.T) {
	s := Bool{}
	f := func(a, b, c bool) bool {
		return s.Add(s.Mul(a, b), c) == ((a && b) || c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickCountDistributivity property-tests distributivity on int64.
func TestQuickCountDistributivity(t *testing.T) {
	s := Count{}
	f := func(a, b, c int16) bool {
		x, y, z := int64(a), int64(b), int64(c)
		return s.Mul(x, s.Add(y, z)) == s.Add(s.Mul(x, y), s.Mul(x, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
