package relation

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/semiring"
)

// Micro-benchmarks for the relation kernel hot path: Join, Semijoin,
// Project, EliminateVar, and Builder.Build at n ∈ {1e3, 1e4, 1e5}.
// These are the per-tuple constant factors behind every protocol round
// in the paper's evaluation (each GHD node of a Theorem 4.1 run calls
// Semijoin/Project/Join once per star reduction). CI runs each once so
// they cannot rot; bench/'s kernel_large workload measures the same
// kernels end to end.

var benchSizes = []int{1_000, 10_000, 100_000}

// benchRel builds a relation R(v0, v1) with n random tuples drawn from a
// domain sized so that joins stay selective but non-trivial.
func benchRel(schema []int, n int, seed int64) *Relation[float64] {
	r := rand.New(rand.NewSource(seed))
	dom := n / 4
	if dom < 4 {
		dom = 4
	}
	b := NewBuilder[float64](semiring.SumProduct{}, schema)
	tuple := make([]int, len(schema))
	for i := 0; i < n; i++ {
		for j := range tuple {
			tuple[j] = r.Intn(dom)
		}
		b.Add(tuple, 1+r.Float64())
	}
	return b.Build()
}

// BenchmarkJoin times the non-prefix Join (the shared column does not
// lead both schemas) in its two emission cases. leading: R(0,1) ⋈
// S(1,2), where R's variables all precede S's unshared one, so the
// rows are generated in output order and skip the Builder.
// interleaved: R(0,2) ⋈ S(1,2), where neither operand leads and the
// Builder re-sorts the generated rows.
func BenchmarkJoin(b *testing.B) {
	cases := []struct {
		name        string
		left, right []int
	}{
		{"leading", []int{0, 1}, []int{1, 2}},
		{"interleaved", []int{0, 2}, []int{1, 2}},
	}
	for _, c := range cases {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				s := semiring.SumProduct{}
				left := benchRel(c.left, n, 1)
				right := benchRel(c.right, n, 2)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Join(s, left, right)
				}
			})
		}
	}
}

func BenchmarkJoinPrefix(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := semiring.SumProduct{}
			// R(0,1) ⋈ S(0,2): the shared column is a schema prefix of
			// both operands — the sorted-merge fast path.
			left := benchRel([]int{0, 1}, n, 1)
			right := benchRel([]int{0, 2}, n, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Join(s, left, right)
			}
		})
	}
}

func BenchmarkSemijoin(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := semiring.SumProduct{}
			left := benchRel([]int{0, 1}, n, 1)
			right := benchRel([]int{0, 2}, n, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Semijoin(s, left, right)
			}
		})
	}
}

func BenchmarkProject(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := semiring.SumProduct{}
			rel := benchRel([]int{0, 1, 2}, n, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Project(s, rel, []int{0, 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEliminateVar(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := semiring.SumProduct{}
			rel := benchRel([]int{0, 1, 2}, n, 4)
			op := semiring.AddOf[float64](s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EliminateVar(s, rel, 2, op, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEliminateVarMiddle eliminates a variable that is not
// innermost, so the rows are re-laid in key order before the fold.
func BenchmarkEliminateVarMiddle(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := semiring.SumProduct{}
			rel := benchRel([]int{0, 1, 2}, n, 4)
			op := semiring.AddOf[float64](s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EliminateVar(s, rel, 1, op, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuilderBuild measures Build on random arity-2 and arity-1
// input and on arity-2 input already in key order — the shape
// joinOutput's unordered branch often feeds in. n=16 covers the small
// relations a size cutoff in the radix sort would be for.
func BenchmarkBuilderBuild(b *testing.B) {
	for _, c := range []struct {
		name   string
		arity  int
		sorted bool
	}{{"a2", 2, false}, {"a1", 1, false}, {"a2-sorted", 2, true}} {
		for _, n := range append([]int{16}, benchSizes...) {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				r := rand.New(rand.NewSource(5))
				dom := max(n/4, 4)
				tuples := make([][2]int, n)
				for i := range tuples {
					tuples[i] = [2]int{r.Intn(dom), r.Intn(dom)}
				}
				if c.sorted {
					slices.SortFunc(tuples, func(x, y [2]int) int {
						return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
					})
				}
				schema := []int{0, 1}[:c.arity]
				s := semiring.SumProduct{}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bd := NewBuilder[float64](s, schema)
					for _, t := range tuples {
						bd.Add(t[:c.arity], 1)
					}
					bd.Build()
				}
			})
		}
	}
}

// mergeDeltaSizes are the |b| of the commit benchmarks: a point update,
// a 64-tuple batch and a bulk load, against a 1e5-row relation.
var mergeDeltaSizes = []int{1, 64, 10_000}

// benchDelta draws k rows against a: every other one, starting with the
// second, moves the value of a listed row, the rest are fresh draws
// (mostly inserts), so the merge splices.
func benchDelta(a *Relation[float64], k int, seed int64) *Relation[float64] {
	r := rand.New(rand.NewSource(seed))
	dom := max(a.Len()/4, 4)
	b := NewBuilder[float64](semiring.SumProduct{}, a.Schema())
	tuple := make([]int, a.Arity())
	for i := 0; i < k; i++ {
		if i%2 == 1 {
			b.AddRow(a.Tuple(r.Intn(a.Len())), 1)
			continue
		}
		for j := range tuple {
			tuple[j] = r.Intn(dom)
		}
		b.Add(tuple, 1+r.Float64())
	}
	return b.Build()
}

// BenchmarkMergeAdd measures the commit kernel of a standing view:
// a ⊕ b with |a| = 1e5 and b a mixed delta of 1, 64 or 1e4 rows.
func BenchmarkMergeAdd(b *testing.B) {
	s := semiring.SumProduct{}
	a := benchRel([]int{0, 1}, 100_000, 1)
	for _, k := range mergeDeltaSizes {
		b.Run(fmt.Sprintf("b=%d", k), func(b *testing.B) {
			d := benchDelta(a, k, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MergeAdd(s, a, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRebaseIndex carries a 1e5-row relation's index on its second
// column across a ⊕ b, beside the fresh build it replaces.
func BenchmarkRebaseIndex(b *testing.B) {
	s := semiring.SumProduct{}
	a := benchRel([]int{0, 1}, 100_000, 1)
	ix := BuildSortedIndex(a, []int{1})
	for _, k := range mergeDeltaSizes {
		d := benchDelta(a, k, 2)
		nw, err := MergeAdd(s, a, d)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rebase/b=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, rebuilt := RebaseIndex(ix, a, d, nw); rebuilt {
					b.Fatal("rebase fell back to a fresh build")
				}
			}
		})
		b.Run(fmt.Sprintf("build/b=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildSortedIndex(nw, []int{1})
			}
		})
	}
}
