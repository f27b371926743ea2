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

// The paths EvalNode can take.
const (
	pathAny   = iota // unpinned
	pathFused        // relation.EvalFused
	pathCore         // relation.EvalCore
	pathChain        // Join + AggregateOut
)

// nodeCase is one GHD node for the walks' differential: a factor (nil
// for a factorless node), the children's messages in join order, the
// keep set, the query context the node reads (DomSize, VarOps), and the
// path it must take.
type nodeCase[T any] struct {
	name     string
	factor   *relation.Relation[T]
	children []*relation.Relation[T]
	keep     []int
	dom      int
	varOps   map[int]semiring.Op[T]
	path     int
}

// nodePath reports the path EvalNode takes on c.
func nodePath[T any](q *Query[T], c nodeCase[T]) int {
	if _, ok, _ := relation.EvalFused(q.S, c.factor, c.children, c.keep, q.Op, q.DomSize); ok {
		return pathFused
	}
	if _, ok, _ := relation.EvalCore(q.S, c.children, c.keep, q.Op, q.DomSize); ok && c.factor == nil {
		return pathCore
	}
	return pathChain
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
	add(nodeCase[T]{name: "zero-product-drops", path: pathFused,
		factor:   rel(s, ab, [][]int{{0, 0}, {0, 1}, {1, 1}}, []T{x, x, one}),
		children: []*relation.Relation[T]{rel(s, []int{1}, [][]int{{0}, {1}}, []T{y, y}), rel(s, []int{0}, [][]int{{0}, {1}}, []T{poison, poison})},
		keep:     []int{0}})
	// A group whose fold is zero is dropped before the next level.
	add(nodeCase[T]{name: "zero-group-drops", path: pathFused,
		factor:   rel(s, []int{0, 1, 2}, [][]int{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}}, []T{x, y, one}),
		children: []*relation.Relation[T]{rel(s, []int{2}, [][]int{{0}, {1}}, []T{one, one})},
		keep:     nil})
	// The span bound: one child on one variable, dom = span.
	for _, d := range []int{-1, 0, 1} {
		f := rel(s, ab, [][]int{{0, 0}, {0, 1}, {1, 2}}, ones(3))
		ch := rel(s, []int{1}, [][]int{{0}, {2}}, ones(2))
		path := pathFused
		if d > 0 {
			path = pathChain
		}
		add(nodeCase[T]{name: fmt.Sprintf("span-bound%+d", d), path: path, factor: f,
			children: []*relation.Relation[T]{ch}, keep: []int{0}, dom: relation.FuseSpan*(f.Len()+ch.Len()) + d})
	}
	// The fallbacks.
	add(nodeCase[T]{name: "fallback-product-aggregate", path: pathChain,
		factor: randRel(s, rng, ab, 3, 1, gen), keep: []int{0}, dom: 3,
		varOps: map[int]semiring.Op[T]{1: semiring.MulOf(s)}})
	add(nodeCase[T]{name: "fallback-child-outside-factor", path: pathChain,
		factor:   randRel(s, rng, ab, 3, 0.7, gen),
		children: []*relation.Relation[T]{randRel(s, rng, []int{1, 2}, 3, 0.7, gen)}, keep: []int{0, 2}})
	add(nodeCase[T]{name: "fallback-span", path: pathChain, dom: 1000,
		factor:   rel(s, []int{0, 1, 2}, [][]int{{0, 1, 2}, {3, 4, 5}}, ones(2)),
		children: []*relation.Relation[T]{rel(s, []int{1, 2}, [][]int{{1, 2}, {4, 5}}, ones(2))}, keep: []int{0}})
	add(nodeCase[T]{name: "fallback-cell-at-dom", path: pathChain,
		factor: rel(s, ab, [][]int{{0, 1}, {1, 4}}, ones(2)), keep: []int{0}})
	add(nodeCase[T]{name: "fallback-negative-child-cell", path: pathChain,
		factor:   rel(s, ab, [][]int{{0, 1}, {1, 2}}, ones(2)),
		children: []*relation.Relation[T]{rel(s, []int{1}, [][]int{{-1}, {1}}, ones(2))}, keep: []int{0}})
	// A Join output has no recorded range, so its cells are scanned.
	unranged := relation.Join(s, rel(s, []int{0}, [][]int{{0}, {5}}, ones(2)), rel(s, ab, [][]int{{0, 1}, {5, 1}}, ones(2)))
	add(nodeCase[T]{name: "fallback-unranged-cell", path: pathChain, factor: unranged, keep: []int{1}})
	add(nodeCase[T]{name: "fallback-nothing-to-do", path: pathChain, factor: randRel(s, rng, ab, 3, 0.7, gen), keep: ab})
	// No child, but a variable to fold ahead of the kept one.
	add(nodeCase[T]{name: "gather-no-child", path: pathFused, factor: randRel(s, rng, ab, 3, 0.9, gen), keep: []int{1}})
	add(nodeCase[T]{name: "fallback-two-before-keep", path: pathChain,
		factor: randRel(s, rng, []int{0, 1, 2}, 3, 0.8, gen), keep: []int{2}})
	// Keys and keep sets.
	abc := []int{0, 1, 2}
	for _, keep := range [][]int{nil, {0}, {0, 1}, {1}, {0, 2}, {1, 2}, abc, {0, 3}} {
		add(nodeCase[T]{name: fmt.Sprintf("keep%v", keep), path: pathAny, factor: randRel(s, rng, abc, 3, 0.7, gen),
			children: []*relation.Relation[T]{randRel(s, rng, []int{2}, 3, 0.8, gen), randRel(s, rng, []int{0, 2}, 3, 0.8, gen),
				randRel(s, rng, nil, 3, 1, gen)},
			keep: keep})
	}
	add(nodeCase[T]{name: "empty-factor", path: pathFused, factor: relation.Empty[T](ab),
		children: []*relation.Relation[T]{randRel(s, rng, []int{1}, 4, 1, gen)}, keep: []int{0}})
	add(nodeCase[T]{name: "empty-child", path: pathFused, factor: randRel(s, rng, ab, 4, 1, gen),
		children: []*relation.Relation[T]{relation.Empty[T]([]int{1})}, keep: []int{0}})
	add(nodeCase[T]{name: "arity-zero", path: pathFused, factor: relation.Unit(s, one),
		children: []*relation.Relation[T]{randRel(s, rng, nil, 1, 1, gen)}})
	// Above the parallel threshold, so the walk splits into blocks.
	add(nodeCase[T]{name: "large-path", path: pathFused, dom: 180, factor: randRel(s, rng, ab, 180, 0.75, gen),
		children: []*relation.Relation[T]{randRel(s, rng, []int{1}, 180, 0.9, gen)}, keep: []int{0}})
	add(nodeCase[T]{name: "large-two-eliminated", path: pathFused, dom: 36, factor: randRel(s, rng, abc, 36, 0.5, gen),
		children: []*relation.Relation[T]{randRel(s, rng, []int{2}, 36, 0.9, gen), randRel(s, rng, []int{1, 2}, 36, 0.9, gen)},
		keep:     []int{0}})
	add(nodeCase[T]{name: "large-gather", path: pathFused, dom: 180, factor: randRel(s, rng, ab, 180, 0.75, gen),
		children: []*relation.Relation[T]{randRel(s, rng, []int{0}, 180, 0.9, gen)}, keep: []int{1}})
	// Random nodes: a factor on up to three of four variables, children
	// on subsets of it (now and then one that leaves it), random keeps.
	for i := range 150 {
		dom := 2 + rng.Intn(3)
		vs := subset(rng, []int{0, 1, 2, 3})
		c := nodeCase[T]{name: fmt.Sprintf("random%d", i), path: pathAny, dom: dom,
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

// corePath is the path EvalCore's span bound gives a factorless node
// with at least two children and cells in [0, dom): an offset array of
// dom+1 cells per child with variables, and one accumulator of
// dom^(kept after it) cells per variable eliminated ahead of the last
// kept one, against relation.FuseSpan·Σ|child|.
func corePath[T any](c nodeCase[T]) int {
	var vars []int
	cells, rows := 0, 0
	for _, ch := range c.children {
		vars = hypergraph.UnionSorted(vars, ch.Schema())
		if rows += ch.Len(); ch.Arity() > 0 {
			cells += c.dom + 1
		}
	}
	keptAfter := 0
	for i := len(vars) - 1; i >= 0; i-- {
		if hypergraph.ContainsSorted(c.keep, vars[i]) {
			keptAfter++
		} else if keptAfter > 0 {
			cells += int(math.Pow(float64(c.dom), float64(keptAfter)))
		}
	}
	if cells > relation.FuseSpan*rows {
		return pathChain
	}
	return pathCore
}

// coreCases lists the factorless cases of one semiring, with x, y and
// poison as in fusedCases: a triangle, a 4-cycle and K4, each with and
// without pendants, under every keep set (so kept variables sit before,
// between and after the eliminated ones), zero products, empty
// children, the span bound at −1, 0 and +1, the fallbacks, and larger
// nodes whose ranges take several gallop steps.
func coreCases[T any](s semiring.Semiring[T], rng *rand.Rand, gen func(*rand.Rand) T, x, y, poison T) []nodeCase[T] {
	one := s.One()
	msgs := func(dom int, density float64, edges [][]int) []*relation.Relation[T] {
		out := make([]*relation.Relation[T], len(edges))
		for i, e := range edges {
			out[i] = randRel(s, rng, e, dom, density, gen)
		}
		return out
	}
	full := func(schema []int, dom int, v T) *relation.Relation[T] {
		return randRel(s, rng, schema, dom, 1, func(*rand.Rand) T { return v })
	}
	tri := [][]int{{0, 1}, {0, 2}, {1, 2}}
	cycle4 := [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	k4 := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	shapes := []struct {
		name  string
		edges [][]int
	}{
		{"tri", tri},
		{"tri-pendant", slices.Concat(tri, [][]int{{2, 3}})},
		{"cycle4", cycle4},
		{"cycle4-pendant", slices.Concat(cycle4, [][]int{{3, 4}, {1}})},
		{"k4", k4},
		{"k4-pendant", slices.Concat(k4, [][]int{{0, 4}, nil})},
	}
	var cs []nodeCase[T]
	for _, sh := range shapes {
		var vars []int
		for _, e := range sh.edges {
			vars = hypergraph.UnionSorted(vars, e)
		}
		for mask := range 1 << len(vars) {
			var keep []int
			for i, v := range vars {
				if mask>>i&1 == 1 {
					keep = append(keep, v)
				}
			}
			c := nodeCase[T]{name: fmt.Sprintf("core-%s-keep%v", sh.name, keep), dom: 3, children: msgs(3, 0.7, sh.edges), keep: keep}
			c.path = corePath(c)
			cs = append(cs, c)
		}
	}
	// A product that becomes zero is dropped before the next ⊗ meets it.
	cs = append(cs, nodeCase[T]{name: "core-zero-product-drops", path: pathCore, dom: 3, keep: []int{1},
		children: []*relation.Relation[T]{full([]int{0, 1}, 3, x), full([]int{0, 2}, 3, y), full([]int{1, 2}, 3, poison)}})
	cs = append(cs, nodeCase[T]{name: "core-zero-product-pendant", path: pathCore, dom: 3, keep: []int{2},
		children: []*relation.Relation[T]{full([]int{0, 1}, 3, one), full([]int{0, 2}, 3, x), full([]int{1, 2}, 3, one),
			full([]int{2, 3}, 3, y), full(nil, 3, poison)}})
	// Empty children, on and off the variables.
	for i, empty := range []*relation.Relation[T]{relation.Empty[T]([]int{1, 2}), relation.Empty[T](nil)} {
		cs = append(cs, nodeCase[T]{name: fmt.Sprintf("core-empty-child%d", i), path: pathCore, dom: 3, keep: []int{2},
			children: append(msgs(3, 0.8, tri[:2]), empty)})
	}
	// The span bound: children (A, B) and (B) keeping B give offset
	// arrays of 2·(dom+1) cells and one accumulator of dom cells, against
	// FuseSpan·(rows in); pick dom and rows to land at −1, 0 and +1.
	for _, d := range []int{-1, 0, 1} {
		for dom := 3; ; dom++ {
			cells := 2*(dom+1) + dom
			if (cells-d)%relation.FuseSpan != 0 || (cells-d)/relation.FuseSpan-1 > dom {
				continue
			}
			ab := relation.NewBuilder(s, []int{0, 1})
			for a := range (cells-d)/relation.FuseSpan - 1 {
				ab.Add([]int{a, 0}, one)
			}
			path := pathCore
			if d > 0 {
				path = pathChain
			}
			cs = append(cs, nodeCase[T]{name: fmt.Sprintf("core-span-bound%+d", d), path: path, dom: dom, keep: []int{1},
				children: []*relation.Relation[T]{ab.Build(), full([]int{1}, 1, one)}})
			break
		}
	}
	// The fallbacks to the chain.
	cs = append(cs, nodeCase[T]{name: "core-fallback-product-aggregate", path: pathChain, dom: 3, keep: []int{0},
		children: msgs(3, 0.8, tri), varOps: map[int]semiring.Op[T]{2: semiring.MulOf(s)}})
	// Variable 2 meets no earlier variable in any child, so the walk
	// would cross it with every binding of variable 1.
	cs = append(cs, nodeCase[T]{name: "core-fallback-disconnected-order", path: pathChain, dom: 3, keep: []int{5},
		children: msgs(3, 0.8, [][]int{{3, 4}, {3, 5}, {4, 5}, {1, 4}, {2, 3}, {1}})})
	cs = append(cs, nodeCase[T]{name: "core-fallback-one-child", path: pathChain, dom: 3, keep: []int{0},
		children: msgs(3, 0.8, tri[:1])})
	cs = append(cs, nodeCase[T]{name: "core-fallback-cell-at-dom", path: pathChain, dom: 3, keep: []int{0},
		children: append(msgs(3, 0.8, tri[:2]), rel(s, []int{1, 2}, [][]int{{0, 1}, {1, 3}}, []T{one, one}))})
	cs = append(cs, nodeCase[T]{name: "core-fallback-negative-cell", path: pathChain, dom: 3, keep: []int{0},
		children: append(msgs(3, 0.8, tri[:2]), rel(s, []int{1, 2}, [][]int{{-1, 1}, {1, 2}}, []T{one, one}))})
	// Larger nodes, and a keep variable no child lists.
	tp := slices.Concat(tri, [][]int{{2, 3}})
	for _, keep := range [][]int{nil, {2}, {0, 2}, {1, 3}, {3}, {2, 9}} {
		cs = append(cs, nodeCase[T]{name: fmt.Sprintf("core-large-tri-pendant-keep%v", keep), path: pathCore, dom: 40,
			children: msgs(40, 0.25, tp), keep: keep})
	}
	cs = append(cs, nodeCase[T]{name: "core-large-k4", path: pathCore, dom: 16, children: msgs(16, 0.4, k4), keep: []int{1}})
	return cs
}

// checkFused runs every case through EvalNode and the chain at 1, 2 and
// 8 workers, and requires bit-identical answers and the path each case
// pins.
func checkFused[T any](t *testing.T, s semiring.Semiring[T], gen func(*rand.Rand) T, x, y, poison T) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cases := slices.Concat(fusedCases(s, rng, gen, x, y, poison), coreCases(s, rng, gen, x, y, poison))
	for _, w := range []int{1, 2, 8} {
		prev := exec.SetWorkers(w)
		walked := 0
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
				t.Fatalf("w%d %s: EvalNode %v differs from chain %v", w, c.name, got, want)
			}
			path := nodePath(q, c)
			if c.path != pathAny && path != c.path {
				t.Fatalf("w%d %s: took path %d, want %d", w, c.name, path, c.path)
			}
			if path != pathChain {
				walked++
			}
		}
		exec.SetWorkers(prev)
		if walked < len(cases)/2 {
			t.Fatalf("w%d: only %d of %d nodes took a walk", w, walked, len(cases))
		}
	}
}

// TestEvalNodeFusedMatchesChain pins EvalNode's fused and core walks to
// the Join + AggregateOut chain bit for bit, under every registry
// semiring at 1, 2 and 8 workers: zero products that would meet a
// poison value, the span bounds at −1, 0 and +1, every fallback,
// children keyed off the factor's prefix, prefix and non-prefix keeps,
// several eliminated variables, empty factors and children, factorless
// cyclic cores under every keep set, and random nodes.
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
