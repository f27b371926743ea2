package faq

import (
	"math"
	"testing"

	"repro/internal/relation"
	"repro/internal/semiring"
)

// FuzzEvalNodeCore decodes a random factorless node, 2–4 children of
// arity ≤ 3 over variables 0–4 with cells in [0, dom) and dom ≤ 8, and a
// random keep set, and requires EvalNode to match the Join +
// AggregateOut chain bit for bit under Count and SumProduct. Each value
// set holds a pair whose product is Zero (2^32·2^32 wraps to 0,
// 1e-200·1e-200 underflows to 0) and, for floats, +Inf, which turns
// such a Zero into NaN if it is ever multiplied in.
func FuzzEvalNodeCore(f *testing.F) {
	f.Add([]byte{3, 4, 0, 3, 4, 0, 0, 1, 1, 2, 2, 5, 4, 0, 1, 2, 2, 1, 6, 6, 4, 1, 2, 0, 0, 2, 1})
	f.Add([]byte{7, 0, 2, 11, 6, 0, 1, 2, 4, 4, 3, 5, 6, 7, 1, 7, 7, 7, 6, 2, 4, 1, 6, 0, 3, 7, 1, 1, 4, 1, 5, 3, 0, 2, 0, 2, 4, 5, 2, 6})
	f.Add([]byte{2, 31, 1, 7, 3, 0, 0, 0, 4, 1, 1, 1, 4, 30, 3, 1, 1, 1, 5, 0, 1, 0, 4})
	counts := []int64{1, 2, -1, 3, 1 << 32, math.MinInt64, -3, 5}
	floats := []float64{1, 0.5, -2, 3.25, 1e-200, 1e300, math.Inf(1), 7}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		dom, keepMask, k := 1+next()%8, next(), 2+next()%3
		var keep []int
		for v := range 5 {
			if keepMask>>v&1 == 1 {
				keep = append(keep, v)
			}
		}
		type child struct {
			schema []int
			rows   [][]int
			vals   []int
		}
		children := make([]child, k)
		for i := range children {
			c := &children[i]
			for v, m := 0, next(); v < 5 && len(c.schema) < 3; v++ {
				if m>>v&1 == 1 {
					c.schema = append(c.schema, v)
				}
			}
			for range next() % 16 {
				row := make([]int, len(c.schema))
				for j := range row {
					row[j] = next() % dom
				}
				c.rows, c.vals = append(c.rows, row), append(c.vals, next())
			}
		}
		countNode := nodeCase[int64]{keep: keep, dom: dom}
		floatNode := nodeCase[float64]{keep: keep, dom: dom}
		for _, c := range children {
			cv, fv := make([]int64, len(c.vals)), make([]float64, len(c.vals))
			for i, v := range c.vals {
				cv[i], fv[i] = counts[v%len(counts)], floats[v%len(floats)]
			}
			countNode.children = append(countNode.children, rel[int64](semiring.Count{}, c.schema, c.rows, cv))
			floatNode.children = append(floatNode.children, rel[float64](semiring.SumProduct{}, c.schema, c.rows, fv))
		}
		checkCore(t, semiring.Count{}, countNode)
		checkCore(t, semiring.SumProduct{}, floatNode)
	})
}

// checkCore requires EvalNode to match the chain on c bit for bit.
func checkCore[T any](t *testing.T, s semiring.Semiring[T], c nodeCase[T]) {
	t.Helper()
	q := &Query[T]{S: s, DomSize: c.dom}
	want, err := chainNode(q, c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalNode(q, nil, c.children, c.keep)
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(got, want) {
		_, core, _ := relation.EvalCore(s, c.children, c.keep, q.Op, c.dom)
		t.Fatalf("%T keep %v dom %d (core walk %v): EvalNode %v differs from chain %v", s, c.keep, c.dom, core, got, want)
	}
}
