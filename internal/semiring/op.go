package semiring

// Op is a binary aggregate operator for a bound variable of a general FAQ
// query (Section 5, eq. 4). For each bound variable i the paper requires
// either ⊕⁽ⁱ⁾ = ⊗ (a product aggregate) or (D, ⊕⁽ⁱ⁾, ⊗) to be a commutative
// semiring sharing the additive identity 0 and multiplicative identity 1
// with the query's base semiring (a semiring aggregate).
type Op[T any] interface {
	// Identity returns the identity element of Combine.
	Identity() T
	// Combine applies the aggregate to two values.
	Combine(a, b T) T
	// IsProduct reports whether this aggregate is the semiring product ⊗.
	// Product aggregates require special handling over listing
	// representations: unlisted (zero) tuples annihilate the aggregate,
	// so the aggregation must know the domain size (see
	// relation.EliminateVar).
	IsProduct() bool
}

// addOp adapts a semiring's ⊕ into an Op.
type addOp[T any] struct{ s Semiring[T] }

func (o addOp[T]) Identity() T      { return o.s.Zero() }
func (o addOp[T]) Combine(a, b T) T { return o.s.Add(a, b) }
func (o addOp[T]) IsProduct() bool  { return false }

// AddOf returns the semiring-aggregate operator ⊕ of s. This is the
// operator used for every bound variable of an FAQ-SS query.
func AddOf[T any](s Semiring[T]) Op[T] { return addOp[T]{s} }

// mulOp adapts a semiring's ⊗ into a product-aggregate Op.
type mulOp[T any] struct{ s Semiring[T] }

func (o mulOp[T]) Identity() T      { return o.s.One() }
func (o mulOp[T]) Combine(a, b T) T { return o.s.Mul(a, b) }
func (o mulOp[T]) IsProduct() bool  { return true }

// MulOf returns the product-aggregate operator ⊗ of s, usable as a bound
// variable's aggregate in a general FAQ.
func MulOf[T any](s Semiring[T]) Op[T] { return mulOp[T]{s} }
