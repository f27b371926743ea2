package faq

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// nodeCase is one GHD node for the fused-walk differential: a factor,
// the children's messages in join order, the keep set, and the query
// context the node reads (DomSize, VarOps).
type nodeCase[T any] struct {
	name     string
	factor   *relation.Relation[T]
	children []*relation.Relation[T]
	keep     []int
	dom      int
	varOps   map[int]semiring.Op[T]
	fused    int // 1: must take the fused walk, 0: must take the chain, -1: either
}

// chainNode is the reference: Join each child in order, then
// AggregateOut to keep — the chain EvalNode's meaning is written in.
func chainNode[T any](q *Query[T], c nodeCase[T]) (*relation.Relation[T], error) {
	cur := c.factor
	if cur == nil {
		cur = relation.Unit(q.S, q.S.One())
	}
	for _, ch := range c.children {
		cur = relation.Join(q.S, cur, ch)
	}
	return AggregateOut(q, cur, func(x int) bool { return hypergraph.ContainsSorted(c.keep, x) })
}

// sameBits compares two annotations bit for bit (floats by their IEEE
// bits, so -0, NaN and re-association all show).
func sameBits[T any](x, y T) bool {
	if f, ok := any(x).(float64); ok {
		return math.Float64bits(f) == math.Float64bits(any(y).(float64))
	}
	return any(x) == any(y)
}

func bitIdentical[T any](a, b *relation.Relation[T]) bool {
	if !slices.Equal(a.Schema(), b.Schema()) || a.Len() != b.Len() {
		return false
	}
	for i := range a.Len() {
		if !slices.Equal(a.Tuple(i), b.Tuple(i)) || !sameBits(a.Value(i), b.Value(i)) {
			return false
		}
	}
	return true
}

// rel builds a relation over schema from rows and values.
func rel[T any](s semiring.Semiring[T], schema []int, rows [][]int, vals []T) *relation.Relation[T] {
	b := relation.NewBuilder(s, schema)
	for i, r := range rows {
		b.Add(r, vals[i])
	}
	return b.Build()
}

// randRel lists each of the dom^|schema| tuples with probability
// density, valued by gen.
func randRel[T any](s semiring.Semiring[T], rng *rand.Rand, schema []int, dom int, density float64, gen func(*rand.Rand) T) *relation.Relation[T] {
	b := relation.NewBuilder(s, schema)
	t := make([]int, len(schema))
	for {
		if rng.Float64() < density {
			b.Add(t, gen(rng))
		}
		k := len(t) - 1
		for ; k >= 0 && t[k] == dom-1; k-- {
			t[k] = 0
		}
		if k < 0 {
			break
		}
		t[k]++
	}
	return b.Build()
}

// subset draws a random sorted subset of vs.
func subset(rng *rand.Rand, vs []int) []int {
	var out []int
	for _, v := range vs {
		if rng.Intn(2) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// fusedCases lists the cases of one semiring: x and y are a pair whose
// product is Zero although neither is, and poison is a value that turns
// a Zero product into a non-Zero one (NaN, say) if it is ever
// multiplied in.
func fusedCases[T any](s semiring.Semiring[T], rng *rand.Rand, gen func(*rand.Rand) T, x, y, poison T) []nodeCase[T] {
	one := s.One()
	ones := func(n int) []T {
		v := make([]T, n)
		for i := range v {
			v[i] = one
		}
		return v
	}
	ab := []int{0, 1}
	var cs []nodeCase[T]
	add := func(c nodeCase[T]) {
		if c.dom == 0 {
			c.dom = 4
		}
		cs = append(cs, c)
	}
	// A product that becomes zero is dropped before the next ⊗ meets it.
	add(nodeCase[T]{name: "zero-product-drops", fused: 1,
		factor:   rel(s, ab, [][]int{{0, 0}, {0, 1}, {1, 1}}, []T{x, x, one}),
		children: []*relation.Relation[T]{rel(s, []int{1}, [][]int{{0}, {1}}, []T{y, y}), rel(s, []int{0}, [][]int{{0}, {1}}, []T{poison, poison})},
		keep:     []int{0}})
	// A group whose fold is zero is dropped before the next level.
	add(nodeCase[T]{name: "zero-group-drops", fused: 1,
		factor:   rel(s, []int{0, 1, 2}, [][]int{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}}, []T{x, y, one}),
		children: []*relation.Relation[T]{rel(s, []int{2}, [][]int{{0}, {1}}, []T{one, one})},
		keep:     nil})
	// The span bound: one child on one variable, dom = span.
	for _, d := range []int{-1, 0, 1} {
		f := rel(s, ab, [][]int{{0, 0}, {0, 1}, {1, 2}}, ones(3))
		ch := rel(s, []int{1}, [][]int{{0}, {2}}, ones(2))
		fused := 1
		if d > 0 {
			fused = 0
		}
		add(nodeCase[T]{name: fmt.Sprintf("span-bound%+d", d), fused: fused, factor: f,
			children: []*relation.Relation[T]{ch}, keep: []int{0}, dom: relation.FuseSpan*(f.Len()+ch.Len()) + d})
	}
	// The fallbacks.
	add(nodeCase[T]{name: "fallback-product-aggregate", fused: 0,
		factor: randRel(s, rng, ab, 3, 1, gen), keep: []int{0}, dom: 3,
		varOps: map[int]semiring.Op[T]{1: semiring.MulOf(s)}})
	add(nodeCase[T]{name: "fallback-no-factor", fused: 0,
		children: []*relation.Relation[T]{randRel(s, rng, ab, 3, 0.7, gen), randRel(s, rng, []int{1}, 3, 0.7, gen)}, keep: []int{0}})
	add(nodeCase[T]{name: "fallback-child-outside-factor", fused: 0,
		factor:   randRel(s, rng, ab, 3, 0.7, gen),
		children: []*relation.Relation[T]{randRel(s, rng, []int{1, 2}, 3, 0.7, gen)}, keep: []int{0, 2}})
	add(nodeCase[T]{name: "fallback-span", fused: 0, dom: 1000,
		factor:   rel(s, []int{0, 1, 2}, [][]int{{0, 1, 2}, {3, 4, 5}}, ones(2)),
		children: []*relation.Relation[T]{rel(s, []int{1, 2}, [][]int{{1, 2}, {4, 5}}, ones(2))}, keep: []int{0}})
	add(nodeCase[T]{name: "fallback-cell-at-dom", fused: 0,
		factor: rel(s, ab, [][]int{{0, 1}, {1, 4}}, ones(2)), keep: []int{0}})
	add(nodeCase[T]{name: "fallback-negative-child-cell", fused: 0,
		factor:   rel(s, ab, [][]int{{0, 1}, {1, 2}}, ones(2)),
		children: []*relation.Relation[T]{rel(s, []int{1}, [][]int{{-1}, {1}}, ones(2))}, keep: []int{0}})
	// A Join output has no recorded range, so its cells are scanned.
	unranged := relation.Join(s, rel(s, []int{0}, [][]int{{0}, {5}}, ones(2)), rel(s, ab, [][]int{{0, 1}, {5, 1}}, ones(2)))
	add(nodeCase[T]{name: "fallback-unranged-cell", fused: 0, factor: unranged, keep: []int{1}})
	add(nodeCase[T]{name: "fallback-nothing-to-do", fused: 0, factor: randRel(s, rng, ab, 3, 0.7, gen), keep: ab})
	add(nodeCase[T]{name: "fallback-two-before-keep", fused: 0,
		factor: randRel(s, rng, []int{0, 1, 2}, 3, 0.8, gen), keep: []int{2}})
	// Keys and keep sets.
	abc := []int{0, 1, 2}
	for _, keep := range [][]int{nil, {0}, {0, 1}, {1}, {0, 2}, {1, 2}, abc, {0, 3}} {
		add(nodeCase[T]{name: fmt.Sprintf("keep%v", keep), fused: -1, factor: randRel(s, rng, abc, 3, 0.7, gen),
			children: []*relation.Relation[T]{randRel(s, rng, []int{2}, 3, 0.8, gen), randRel(s, rng, []int{0, 2}, 3, 0.8, gen),
				randRel(s, rng, nil, 3, 1, gen)},
			keep: keep})
	}
	add(nodeCase[T]{name: "empty-factor", fused: 1, factor: relation.Empty[T](ab),
		children: []*relation.Relation[T]{randRel(s, rng, []int{1}, 4, 1, gen)}, keep: []int{0}})
	add(nodeCase[T]{name: "empty-child", fused: 1, factor: randRel(s, rng, ab, 4, 1, gen),
		children: []*relation.Relation[T]{relation.Empty[T]([]int{1})}, keep: []int{0}})
	add(nodeCase[T]{name: "arity-zero", fused: 1, factor: relation.Unit(s, one),
		children: []*relation.Relation[T]{randRel(s, rng, nil, 1, 1, gen)}})
	// Above the parallel threshold, so the walk splits into blocks.
	add(nodeCase[T]{name: "large-path", fused: 1, dom: 180, factor: randRel(s, rng, ab, 180, 0.75, gen),
		children: []*relation.Relation[T]{randRel(s, rng, []int{1}, 180, 0.9, gen)}, keep: []int{0}})
	add(nodeCase[T]{name: "large-two-eliminated", fused: 1, dom: 36, factor: randRel(s, rng, abc, 36, 0.5, gen),
		children: []*relation.Relation[T]{randRel(s, rng, []int{2}, 36, 0.9, gen), randRel(s, rng, []int{1, 2}, 36, 0.9, gen)},
		keep:     []int{0}})
	add(nodeCase[T]{name: "large-gather", fused: 1, dom: 180, factor: randRel(s, rng, ab, 180, 0.75, gen),
		children: []*relation.Relation[T]{randRel(s, rng, []int{0}, 180, 0.9, gen)}, keep: []int{1}})
	// Random nodes: a factor on up to three of four variables, children
	// on subsets of it (now and then one that leaves it), random keeps.
	for i := range 150 {
		dom := 2 + rng.Intn(3)
		vs := subset(rng, []int{0, 1, 2, 3})
		c := nodeCase[T]{name: fmt.Sprintf("random%d", i), fused: -1, dom: dom,
			factor: randRel(s, rng, vs, dom, rng.Float64(), gen), keep: subset(rng, []int{0, 1, 2, 3})}
		for range rng.Intn(4) {
			cv := subset(rng, vs)
			if rng.Intn(8) == 0 {
				cv = subset(rng, []int{0, 1, 2, 3})
			}
			c.children = append(c.children, randRel(s, rng, cv, dom, rng.Float64(), gen))
		}
		add(c)
	}
	return cs
}

// checkFused runs every case through EvalNode and the chain at 1, 2 and
// 8 workers and requires bit-identical answers, and the fused walk
// exactly where the case pins it.
func checkFused[T any](t *testing.T, s semiring.Semiring[T], gen func(*rand.Rand) T, x, y, poison T) {
	t.Helper()
	cases := fusedCases(s, rand.New(rand.NewSource(7)), gen, x, y, poison)
	for _, w := range []int{1, 2, 8} {
		prev := exec.SetWorkers(w)
		fusedN := 0
		for _, c := range cases {
			q := &Query[T]{S: s, DomSize: c.dom, VarOps: c.varOps}
			want, err := chainNode(q, c)
			if err != nil {
				t.Fatalf("w%d %s: chain: %v", w, c.name, err)
			}
			got, err := EvalNode(q, c.factor, c.children, c.keep)
			if err != nil {
				t.Fatalf("w%d %s: EvalNode: %v", w, c.name, err)
			}
			if !bitIdentical(got, want) {
				t.Fatalf("w%d %s: fused %v differs from chain %v", w, c.name, got, want)
			}
			_, ok, _ := relation.EvalFused(s, c.factor, c.children, c.keep, q.Op, c.dom)
			if c.fused >= 0 && ok != (c.fused == 1) {
				t.Fatalf("w%d %s: fused walk taken = %v, want %v", w, c.name, ok, c.fused == 1)
			}
			if ok {
				fusedN++
			}
		}
		exec.SetWorkers(prev)
		if fusedN < len(cases)/2 {
			t.Fatalf("w%d: only %d of %d nodes took the fused walk", w, fusedN, len(cases))
		}
	}
}

// TestEvalNodeFusedMatchesChain pins EvalNode's fused walk to the
// Join + AggregateOut chain bit for bit, under every registry semiring
// at 1, 2 and 8 workers: zero products that would meet a poison value,
// the span bound at −1, 0 and +1, every fallback, children keyed off
// the factor's prefix, prefix and non-prefix keeps, several eliminated
// variables, empty factors and children, and random nodes.
func TestEvalNodeFusedMatchesChain(t *testing.T) {
	small := []float64{-3, -1, 0.5, 1, 2, 3.25, 1e-3, 7}
	float := func(r *rand.Rand) float64 {
		switch r.Intn(16) {
		case 0:
			return 1e-200
		case 1:
			return 1e300
		default:
			return small[r.Intn(len(small))] * (1 + r.Float64())
		}
	}
	t.Run("bool", func(t *testing.T) {
		checkFused[bool](t, semiring.Bool{}, func(*rand.Rand) bool { return true }, true, true, true)
	})
	t.Run("f2", func(t *testing.T) {
		checkFused[byte](t, semiring.F2{}, func(*rand.Rand) byte { return 1 }, 1, 1, 1)
	})
	t.Run("count", func(t *testing.T) {
		// 2^32 · 2^32 wraps to 0; (-2^63)² wraps to 0 and so does -2^63 - 2^63.
		gen := func(r *rand.Rand) int64 {
			switch r.Intn(8) {
			case 0:
				return 1 << 32
			case 1:
				return math.MinInt64
			default:
				return int64(r.Intn(7) - 3)
			}
		}
		checkFused(t, semiring.Count{}, gen, 1<<32, 1<<32, 3)
		checkFused(t, semiring.Count{}, gen, math.MinInt64, math.MinInt64, 3)
	})
	t.Run("sumproduct", func(t *testing.T) {
		// 1e-200 · 1e-200 underflows to 0, which +Inf would turn to NaN.
		checkFused(t, semiring.SumProduct{}, float, 1e-200, 1e-200, math.Inf(1))
		// A ⊕ aggregate other than the semiring's still fuses.
		q := &Query[float64]{S: semiring.SumProduct{}, DomSize: 4,
			VarOps: map[int]semiring.Op[float64]{1: semiring.AddOf[float64](semiring.MaxTimes{})}}
		c := nodeCase[float64]{keep: []int{0}, factor: randRel[float64](q.S, rand.New(rand.NewSource(3)), []int{0, 1}, 4, 0.8, float)}
		got, _ := EvalNode(q, c.factor, nil, c.keep)
		want, _ := chainNode(q, c)
		if !bitIdentical(got, want) {
			t.Fatalf("max aggregate: fused %v differs from chain %v", got, want)
		}
	})
	t.Run("minplus", func(t *testing.T) {
		// 1e308 + 1e308 overflows to +Inf, MinPlus's 0, which -Inf would turn to NaN.
		checkFused(t, semiring.MinPlus{}, float, 1e308, 1e308, math.Inf(-1))
	})
	t.Run("maxtimes", func(t *testing.T) {
		checkFused(t, semiring.MaxTimes{}, float, 1e-200, 1e-200, math.Inf(1))
	})
}
