package f2

import (
	"math/rand"
	"testing"
)

func TestVectorBits(t *testing.T) {
	v := NewVector(130)
	v.Set(0, 1)
	v.Set(64, 1)
	v.Set(129, 1)
	if v.Get(0) != 1 || v.Get(64) != 1 || v.Get(129) != 1 {
		t.Error("set bits not readable")
	}
	if v.Get(1) != 0 || v.Get(128) != 0 {
		t.Error("unset bits read as 1")
	}
	v.Set(64, 0)
	if v.Get(64) != 0 {
		t.Error("clear failed")
	}
}

func TestXorDot(t *testing.T) {
	a := NewVector(8)
	b := NewVector(8)
	a.Set(1, 1)
	a.Set(3, 1)
	b.Set(3, 1)
	b.Set(5, 1)
	x := a.Xor(b)
	if x.Get(1) != 1 || x.Get(3) != 0 || x.Get(5) != 1 {
		t.Error("xor wrong")
	}
	if a.Dot(b) != 1 { // overlap at bit 3 only
		t.Error("dot = 0, want 1")
	}
	if a.Dot(a) != 0 { // two set bits: parity 0
		t.Error("self dot = 1, want 0")
	}
}

func TestMulVecAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(70)
		m := RandomMatrix(n, n, r)
		x := RandomVector(n, r)
		y := m.MulVec(x)
		for i := 0; i < n; i++ {
			var want byte
			for j := 0; j < n; j++ {
				want ^= m.Get(i, j) & x.Get(j)
			}
			if y.Get(i) != want {
				t.Fatalf("MulVec row %d = %d, want %d", i, y.Get(i), want)
			}
		}
	}
}

func TestMulAssociativity(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(20)
		a := RandomMatrix(n, n, r)
		b := RandomMatrix(n, n, r)
		x := RandomVector(n, r)
		// (a·b)·x == a·(b·x)
		if !a.Mul(b).MulVec(x).Equal(a.MulVec(b.MulVec(x))) {
			t.Fatal("matrix product not associative with MulVec")
		}
	}
}

func TestIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 17
	id := Identity(n)
	x := RandomVector(n, r)
	if !id.MulVec(x).Equal(x) {
		t.Error("I·x != x")
	}
	m := RandomMatrix(n, n, r)
	if !id.Mul(m).Equal(m) || !m.Mul(id).Equal(m) {
		t.Error("I·M != M")
	}
}

func TestUintRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(64)
		v := RandomVector(n, r)
		u := VectorFromUint(n, v.Uint())
		if !u.Equal(v) {
			t.Fatalf("round trip failed for n=%d", n)
		}
	}
}

func TestRandomVectorMasksTail(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		v := RandomVector(13, r)
		if v.Uint()>>13 != 0 {
			t.Fatal("tail bits beyond n are set")
		}
	}
}

// Identity returns the n×n identity.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Equal reports entrywise equality.
func (m *Matrix) Equal(b *Matrix) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.r {
		if !m.r[i].Equal(b.r[i]) {
			return false
		}
	}
	return true
}
