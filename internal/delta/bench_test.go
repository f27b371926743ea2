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

// ledgerView is a materialized tree6 MinPlus view under
// BenchmarkLedgerUpdate, with each edge's live contributions, so deletes
// always name one.
type ledgerView struct {
	m    *delta.Materialized[float64]
	live [][]delta.Tuple[float64]
	rng  *rand.Rand
	dom  int
}

// newLedgerView materializes tree6 over MinPlus (free variable R) with n
// random rows per factor on a domain of n values and costs in
// [0.25, 1.25), the shape of bench/'s view_churn ledger view.
func newLedgerView(b *testing.B, n int) *ledgerView {
	b.Helper()
	s := semiring.MinPlus{}
	tpl, _ := workload.TemplateByName("tree6")
	hb := hypergraph.NewBuilder()
	for _, names := range tpl.Edges() {
		hb.Edge(names...)
	}
	h := hb.Build()
	v := &ledgerView{rng: rand.New(rand.NewSource(1)), dom: n, live: make([][]delta.Tuple[float64], h.NumEdges())}
	q := &faq.Query[float64]{S: s, H: h, DomSize: n, Free: []int{hb.VertexID("R")},
		Factors: make([]*relation.Relation[float64], h.NumEdges())}
	for e := range q.Factors {
		bld := relation.NewBuilderHint(s, h.Edge(e), n)
		for i := 0; i < n; i++ {
			tu := delta.Tuple[float64]{Row: []int{v.rng.Intn(n), v.rng.Intn(n)}, Val: 0.25 + v.rng.Float64()}
			bld.Add(tu.Row, tu.Val)
		}
		f := bld.Build()
		q.Factors[e] = f
		for i := 0; i < f.Len(); i++ {
			row := f.Tuple(i)
			v.live[e] = append(v.live[e], delta.Tuple[float64]{Row: []int{int(row[0]), int(row[1])}, Val: f.Value(i)})
		}
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

// update applies the i-th update of size tuples to edge i mod 6: each
// tuple is, with even odds, a delete of a random live contribution or
// an insert of a fresh random one.
func (v *ledgerView) update(i, size int) error {
	e := i % len(v.live)
	b := delta.Batch[float64]{Edge: e}
	for t := 0; t < size; t++ {
		if ls := v.live[e]; v.rng.Intn(2) == 0 && len(ls) > 1 {
			at := v.rng.Intn(len(ls))
			b.Deletes = append(b.Deletes, ls[at])
			ls[at] = ls[len(ls)-1]
			v.live[e] = ls[:len(ls)-1]
			continue
		}
		b.Inserts = append(b.Inserts, delta.Tuple[float64]{Row: []int{v.rng.Intn(v.dom), v.rng.Intn(v.dom)}, Val: 0.25 + v.rng.Float64()})
	}
	v.live[e] = append(v.live[e], b.Inserts...)
	return v.m.Update(context.Background(), b)
}

// BenchmarkLedgerUpdate times one update of a warm recompute-strategy
// view (tree6 over MinPlus, n rows per factor): ns/op is per Update of a
// single tuple (point) or of 64 tuples (batch64), rotating over the six
// edges with inserts and deletes in even odds.
func BenchmarkLedgerUpdate(b *testing.B) {
	for _, n := range []int{1e4, 1e5} {
		var v *ledgerView
		for _, size := range []int{1, 64} {
			name := fmt.Sprintf("n=%d/point", n)
			if size > 1 {
				name = fmt.Sprintf("n=%d/batch%d", n, size)
			}
			b.Run(name, func(b *testing.B) {
				if v == nil {
					v = newLedgerView(b, n)
					for i := 0; i < 4*len(v.live); i++ {
						if err := v.update(i, 1); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := v.update(i, size); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if v != nil {
			v.m.Close()
		}
	}
}
