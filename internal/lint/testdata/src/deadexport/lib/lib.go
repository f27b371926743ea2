// Declarations the deadexport golden suite judges. The reader package
// sees this one through compiler export data, so every read it makes
// must be matched across type-checking universes.
package lib

import (
	"container/heap"
	"fmt"
)

// Used is read by the reader package.
func Used() {}

func Unused() {} // want `exported Unused has no non-test reader`

type Dead struct{} // want `exported Dead has no non-test reader`

// T is read by the reader package; one of its methods is not.
type T struct{}

func (T) Read() {}

func (*T) Unread() {} // want `exported T.Unread has no non-test reader`

func TestOnly() {} // want `exported TestOnly has no non-test reader`

// Recursive reads only itself: its own declaration is not a reader.
func Recursive(n int) int { // want `exported Recursive has no non-test reader`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// SameFile's only reader is elsewhere in this file.
func SameFile() int { return 1 }

var total = SameFile()

// Box[T].Get is read by the reader package only through an
// instantiation, Box[int].
type Box[V any] struct{ v V }

func NewBox[V any](v V) Box[V] { return Box[V]{v: v} }

func (b Box[V]) Get() V { return b.v }

// Semiring is a generic interface; Count implements it, and its methods
// are called only through the interface.
type Semiring[V any] interface {
	Zero() V
	Add(a, b V) V
}

type Count struct{}

func (Count) Zero() int64 { return 0 }

func (Count) Add(a, b int64) int64 { return a + b }

func Sum[V any](s Semiring[V], xs []V) V {
	acc := s.Zero()
	for _, x := range xs {
		acc = s.Add(acc, x)
	}
	return acc
}

// Err implements error and the errors.Is protocol; Name implements
// fmt.Stringer; Heap implements heap.Interface. None of their methods
// is called directly.
type Err struct{}

func (Err) Error() string { return "err" }

func (Err) Is(target error) bool { return target == nil }

type Name int

func (Name) String() string { return "name" }

type Heap []int

func (h Heap) Len() int           { return len(h) }
func (h Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *Heap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *Heap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Describe gives Err, Name and Heap their non-test readers.
func Describe() string {
	h := &Heap{3, 1, 2}
	heap.Init(h)
	var err error = Err{}
	return fmt.Sprint(err, Name(total), h.Len())
}
