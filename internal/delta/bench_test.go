package delta_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/delta"
	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/workload"
)

// ringView is a materialized path7 Count view under BenchmarkRingUpdate,
// with the rows its deletes take back, per edge.
type ringView struct {
	m    *delta.Materialized[int64]
	rows [][]delta.Tuple[int64]
	next []int
	rng  *rand.Rand
	dom  int
}

// newRingView materializes path7 over Count with n random rows per
// factor on a domain of n values, so every value has about one partner
// per edge and a point delta stays about one row along the whole path.
// The query counts every path (no free variable), so the answer is one
// value and the update cost is the view's, not a copy of a large
// answer.
func newRingView(b *testing.B, n int) *ringView {
	b.Helper()
	s := semiring.Count{}
	tpl, _ := workload.TemplateByName("path7")
	hb := hypergraph.NewBuilder()
	for _, names := range tpl.Edges() {
		hb.Edge(names...)
	}
	h := hb.Build()
	v := &ringView{rng: rand.New(rand.NewSource(1)), dom: n,
		rows: make([][]delta.Tuple[int64], h.NumEdges()), next: make([]int, h.NumEdges())}
	q := &faq.Query[int64]{S: s, H: h, DomSize: n,
		Factors: make([]*relation.Relation[int64], h.NumEdges())}
	for e := range q.Factors {
		bld := relation.NewBuilderHint(s, h.Edge(e), n)
		for i := 0; i < n; i++ {
			bld.Add([]int{v.rng.Intn(n), v.rng.Intn(n)}, int64(1+v.rng.Intn(3)))
		}
		f := bld.Build()
		q.Factors[e] = f
		v.rows[e] = make([]delta.Tuple[int64], f.Len())
		for i := range v.rows[e] {
			row := f.Tuple(i)
			v.rows[e][i] = delta.Tuple[int64]{Row: []int{int(row[0]), int(row[1])}, Val: f.Value(i)}
		}
		// Deletes take rows back in a random order.
		v.rng.Shuffle(len(v.rows[e]), func(i, j int) { v.rows[e][i], v.rows[e][j] = v.rows[e][j], v.rows[e][i] })
	}
	g, err := faq.PlanGHD(h, q.Free)
	if err != nil {
		b.Fatal(err)
	}
	if v.m, err = delta.Materialize(context.Background(), q, g, delta.Options{}); err != nil {
		b.Fatal(err)
	}
	return v
}

// update applies the i-th update: even ones insert a fresh random tuple,
// odd ones delete a listed tuple, rotating over the seven edges.
func (v *ringView) update(i int) error {
	e := (i / 2) % len(v.rows)
	if i%2 == 0 {
		tu := delta.Tuple[int64]{Row: []int{v.rng.Intn(v.dom), v.rng.Intn(v.dom)}, Val: 1}
		return v.m.Update(context.Background(), delta.Batch[int64]{Edge: e, Inserts: []delta.Tuple[int64]{tu}})
	}
	tu := v.rows[e][v.next[e]%len(v.rows[e])]
	v.next[e]++
	return v.m.Update(context.Background(), delta.Batch[int64]{Edge: e, Deletes: []delta.Tuple[int64]{tu}})
}

// BenchmarkRingUpdate times one point update of a warm ring-strategy
// view (path7 over Count, n rows per factor): ns/op is per Update, and
// inserts and deletes alternate so the factors keep their size. A
// fold-free commit is O(√n) and a fold O(n) once per √n committed rows,
// so per-update time should grow about √10 per decade of n, not 10×.
func BenchmarkRingUpdate(b *testing.B) {
	for _, n := range []int{1e4, 1e5, 1e6} {
		var v *ringView
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if v == nil {
				v = newRingView(b, n)
				// Warm-up: a delta that cancels on its way up probes no
				// further, so twenty insert/delete pairs per edge make
				// sure every index slot is built before timing.
				for i := 0; i < 40*len(v.rows); i++ {
					if err := v.update(i); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.update(i); err != nil {
					b.Fatal(err)
				}
			}
		})
		if v != nil {
			v.m.Close()
		}
	}
}
