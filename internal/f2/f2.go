// Package f2 implements bit-packed linear algebra over the two-element
// field F₂, the algebra of the paper's Matrix Chain Multiplication
// problem (Problem 1.1): vectors in F₂^n, matrices in F₂^{m×n},
// matrix-vector and matrix-matrix products, rank, and uniform sampling.
package f2

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Vector is a bit vector in F₂^n.
type Vector struct {
	n int
	w []uint64
}

// NewVector returns the zero vector of length n.
func NewVector(n int) *Vector {
	if n < 0 {
		//faqlint:allow nopanic(programmer-error precondition: vector lengths are statically shaped by callers)
		panic(fmt.Sprintf("f2: negative vector length %d", n))
	}
	return &Vector{n: n, w: make([]uint64, (n+63)/64)}
}

// Len returns n.
func (v *Vector) Len() int { return v.n }

// Get returns bit i.
func (v *Vector) Get(i int) byte {
	return byte((v.w[i/64] >> (uint(i) % 64)) & 1)
}

// Set assigns bit i.
func (v *Vector) Set(i int, b byte) {
	if b&1 == 1 {
		v.w[i/64] |= 1 << (uint(i) % 64)
	} else {
		v.w[i/64] &^= 1 << (uint(i) % 64)
	}
}

// Xor returns v ⊕ u (vector addition over F₂).
func (v *Vector) Xor(u *Vector) *Vector {
	if v.n != u.n {
		//faqlint:allow nopanic(invariant check: operand lengths match by construction)
		panic("f2: length mismatch")
	}
	out := NewVector(v.n)
	for i := range v.w {
		out.w[i] = v.w[i] ^ u.w[i]
	}
	return out
}

// Dot returns the inner product ⟨v, u⟩ over F₂.
func (v *Vector) Dot(u *Vector) byte {
	if v.n != u.n {
		//faqlint:allow nopanic(invariant check: operand lengths match by construction)
		panic("f2: length mismatch")
	}
	var acc uint64
	for i := range v.w {
		acc ^= v.w[i] & u.w[i]
	}
	return byte(bits.OnesCount64(acc) & 1)
}

// Equal reports bitwise equality.
func (v *Vector) Equal(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.w {
		if v.w[i] != u.w[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy.
func (v *Vector) Clone() *Vector {
	out := NewVector(v.n)
	copy(out.w, v.w)
	return out
}

// Uint returns the vector packed into a uint64 (n ≤ 64), used as a map
// key by the entropy experiments.
func (v *Vector) Uint() uint64 {
	if v.n > 64 {
		//faqlint:allow nopanic(programmer-error precondition: Uint is documented for n <= 64 only)
		panic("f2: Uint requires n ≤ 64")
	}
	if len(v.w) == 0 {
		return 0
	}
	return v.w[0]
}

// VectorFromUint unpacks a uint64 into a length-n vector (n ≤ 64).
func VectorFromUint(n int, x uint64) *Vector {
	v := NewVector(n)
	if len(v.w) > 0 {
		if n < 64 {
			x &= (1 << uint(n)) - 1
		}
		v.w[0] = x
	}
	return v
}

// RandomVector samples a uniform vector.
func RandomVector(n int, r *rand.Rand) *Vector {
	v := NewVector(n)
	for i := range v.w {
		v.w[i] = r.Uint64()
	}
	if rem := n % 64; rem != 0 && len(v.w) > 0 {
		v.w[len(v.w)-1] &= (1 << uint(rem)) - 1
	}
	return v
}

// Matrix is a row-major bit matrix in F₂^{rows×cols}.
type Matrix struct {
	rows, cols int
	r          []*Vector
}

// NewMatrix returns the zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		//faqlint:allow nopanic(programmer-error precondition: dimensions are statically shaped by callers)
		panic("f2: negative dimension")
	}
	m := &Matrix{rows: rows, cols: cols, r: make([]*Vector, rows)}
	for i := range m.r {
		m.r[i] = NewVector(cols)
	}
	return m
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// Get returns entry (i, j).
func (m *Matrix) Get(i, j int) byte { return m.r[i].Get(j) }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, b byte) { m.r[i].Set(j, b) }

// MulVec returns m·x over F₂.
func (m *Matrix) MulVec(x *Vector) *Vector {
	if x.Len() != m.cols {
		//faqlint:allow nopanic(invariant check: matrix dimensions match by construction)
		panic("f2: dimension mismatch")
	}
	out := NewVector(m.rows)
	for i := 0; i < m.rows; i++ {
		out.Set(i, m.r[i].Dot(x))
	}
	return out
}

// Mul returns m·b over F₂.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		//faqlint:allow nopanic(invariant check: matrix dimensions match by construction)
		panic("f2: dimension mismatch")
	}
	out := NewMatrix(m.rows, b.cols)
	// Accumulate rows of b for set bits of each row of m.
	for i := 0; i < m.rows; i++ {
		acc := NewVector(b.cols)
		for j := 0; j < m.cols; j++ {
			if m.Get(i, j) == 1 {
				acc = acc.Xor(b.r[j])
			}
		}
		out.r[i] = acc
	}
	return out
}

// RandomMatrix samples a uniform rows×cols matrix.
func RandomMatrix(rows, cols int, r *rand.Rand) *Matrix {
	m := &Matrix{rows: rows, cols: cols, r: make([]*Vector, rows)}
	for i := range m.r {
		m.r[i] = RandomVector(cols, r)
	}
	return m
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols, r: make([]*Vector, m.rows)}
	for i := range m.r {
		out.r[i] = m.r[i].Clone()
	}
	return out
}
