package delta

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/workload"
)

// TestIndexesRebasedNotRebuilt pins that a warm view never re-sorts its
// retained state: across 200 single-tuple inserts and deletes on leaf
// and internal edges of a materialized path7 Count view, no index is
// built (faq_delta_index_builds_total stays flat; a rebase that falls
// back to a fresh build counts there too) while commits carry them over
// (faq_delta_index_rebases_total advances), and every answer
// is bit-identical to faq.SolveGHD on the updated factors.
func TestIndexesRebasedNotRebuilt(t *testing.T) {
	const dom, rows = 48, 200
	s := semiring.Count{}
	tpl, _ := workload.TemplateByName("path7")
	hb := hypergraph.NewBuilder()
	for _, names := range tpl.Edges() {
		hb.Edge(names...)
	}
	h := hb.Build()
	rng := rand.New(rand.NewSource(29))
	q := &faq.Query[int64]{S: s, H: h, Free: []int{hb.VertexID("A0")}, DomSize: dom,
		Factors: make([]*relation.Relation[int64], h.NumEdges())}
	for e := range q.Factors {
		b := relation.NewBuilder(s, h.Edge(e))
		for i := 0; i < rows; i++ {
			b.Add([]int{rng.Intn(dom), rng.Intn(dom)}, int64(1+rng.Intn(3)))
		}
		q.Factors[e] = b.Build()
	}
	g, err := faq.PlanGHD(h, q.Free)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m, err := Materialize(ctx, q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// ref is the query the answers are checked against, its factors
	// rebuilt from scratch after every update.
	ref := *q
	ref.Factors = append([]*relation.Relation[int64](nil), q.Factors...)
	apply := func(e int, tu Tuple[int64], del bool) {
		t.Helper()
		b := Batch[int64]{Edge: e, Inserts: []Tuple[int64]{tu}}
		val := tu.Val
		if del {
			b = Batch[int64]{Edge: e, Deletes: []Tuple[int64]{tu}}
			val = -val
		}
		if err := m.Update(ctx, b); err != nil {
			t.Fatal(err)
		}
		rb := relation.NewBuilder(s, h.Edge(e))
		for i := 0; i < ref.Factors[e].Len(); i++ {
			rb.AddRow(ref.Factors[e].Tuple(i), ref.Factors[e].Value(i))
		}
		rb.Add(tu.Row, val)
		ref.Factors[e] = rb.Build()
	}
	insert := func(e int) {
		apply(e, Tuple[int64]{Row: []int{rng.Intn(dom), rng.Intn(dom)}, Val: int64(1 + rng.Intn(3))}, false)
	}
	// Warm up: a few rounds over every edge probe every site once.
	for round := 0; round < 3; round++ {
		for e := range q.Factors {
			insert(e)
		}
	}
	builds, rebases := metricIndexBuilds.Value(), metricIndexRebases.Value()
	if builds == 0 {
		t.Fatal("warm-up built no index")
	}
	for k := 0; k < 200; k++ {
		e := k % h.NumEdges() // edges 0 and 6 are leaves of the path, the rest internal
		if k%2 == 0 {
			insert(e)
		} else {
			f := ref.Factors[e]
			i := rng.Intn(f.Len())
			row := f.Tuple(i)
			apply(e, Tuple[int64]{Row: []int{int(row[0]), int(row[1])}, Val: f.Value(i)}, true)
		}
		want, _, err := faq.SolveGHD(ctx, &ref, g, faq.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Answer()
		if err != nil {
			t.Fatal(err)
		}
		if !relation.Equal(s, got, want) {
			t.Fatalf("update %d on edge %d: answer diverges from SolveGHD", k, e)
		}
	}
	if got := metricIndexBuilds.Value(); got != builds {
		t.Fatalf("a warm view built %d indexes over 200 point updates, want 0", got-builds)
	}
	if got := metricIndexRebases.Value(); got <= rebases {
		t.Fatal("no index was rebased across 200 inserting and deleting updates")
	}
}
