package delta

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/workload"
)

// diagonalPath7 builds a path7 query whose every factor lists the n
// diagonal pairs (j, j), j < n, annotated one, over domain dom, so a
// delta entering at any edge reaches the root.
func diagonalPath7[T any](t *testing.T, s semiring.Semiring[T], dom, n int) (*faq.Query[T], *Materialized[T]) {
	t.Helper()
	tpl, _ := workload.TemplateByName("path7")
	hb := hypergraph.NewBuilder()
	for _, names := range tpl.Edges() {
		hb.Edge(names...)
	}
	h := hb.Build()
	q := &faq.Query[T]{S: s, H: h, Free: []int{hb.VertexID("A0")}, DomSize: dom,
		Factors: make([]*relation.Relation[T], h.NumEdges())}
	for e := range q.Factors {
		b := relation.NewBuilder(s, h.Edge(e))
		for j := 0; j < n; j++ {
			b.Add([]int{j, j}, s.One())
		}
		q.Factors[e] = b.Build()
	}
	g, err := faq.PlanGHD(h, q.Free)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Materialize(context.Background(), q, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return q, m
}

// retained returns a ring view's bases and tails, factors then
// messages, to compare by pointer.
func retained[T any](m *Materialized[T]) [][]*relation.Relation[T] {
	return [][]*relation.Relation[T]{slices.Clone(m.q.Factors), slices.Clone(m.ftail), slices.Clone(m.msgs), slices.Clone(m.mtail)}
}

// sameRetained reports whether two retained snapshots hold the very
// same relations.
func sameRetained[T any](a, b [][]*relation.Relation[T]) bool {
	return slices.EqualFunc(a, b, func(x, y []*relation.Relation[T]) bool { return slices.Equal(x, y) })
}

// TestTailFoldsPastSqrtN pins the base ⊕ tail commit of a ring view.
// Every factor of a path7 Count view lists 100 rows. Below the fold
// bound, single-tuple inserts on an internal edge leave every base
// factor and non-root message the very same relation (so the same row
// buffer) and only grow the factor's tail. The 11th insert makes
// |tail|² = 121 > 100 and folds exactly once, carrying the base's index
// across. No index is built once the view is warm, and every answer
// equals faq.SolveGHD on the updated factors.
func TestTailFoldsPastSqrtN(t *testing.T) {
	const dom, n, edge = 128, 100, 3
	s := semiring.Count{}
	ctx := context.Background()
	q, m := diagonalPath7[int64](t, s, dom, n)
	g, err := faq.PlanGHD(q.H, q.Free)
	if err != nil {
		t.Fatal(err)
	}
	ref := *q
	ref.Factors = slices.Clone(q.Factors)
	apply := func(b Batch[int64]) {
		t.Helper()
		if err := m.Update(ctx, b); err != nil {
			t.Fatal(err)
		}
		rb := relation.NewBuilder[int64](s, q.H.Edge(b.Edge))
		f := ref.Factors[b.Edge]
		for i := 0; i < f.Len(); i++ {
			rb.AddRow(f.Tuple(i), f.Value(i))
		}
		for _, tu := range b.Inserts {
			rb.Add(tu.Row, tu.Val)
		}
		for _, tu := range b.Deletes {
			rb.Add(tu.Row, -tu.Val)
		}
		ref.Factors[b.Edge] = rb.Build()
		want, _, err := faq.SolveGHD(ctx, &ref, g, faq.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := m.Answer(); !relation.Equal[int64](s, got, want) {
			t.Fatalf("answer diverges from SolveGHD after %+v", b)
		}
	}
	// Warm-up: inserting and deleting (1, 0) on every edge probes every
	// index slot of the path and leaves every tail empty again.
	one := []Tuple[int64]{{Row: []int{1, 0}, Val: 1}}
	for e := range q.Factors {
		apply(Batch[int64]{Edge: e, Inserts: one})
		apply(Batch[int64]{Edge: e, Deletes: one})
	}
	builds, rebases, folds := metricIndexBuilds.Value(), metricIndexRebases.Value(), metricFolds.Value()
	for _, r := range append(slices.Clone(m.ftail), m.mtail...) {
		if r.Len() != 0 {
			t.Fatal("an insert and its delete left a tail row behind")
		}
	}
	before := retained(m)
	nonRoot := func(v int) bool { return v != m.p.Root }

	// (5, y) for y ≠ 5 is off the diagonal, so each insert adds one
	// tail row to the factor and moves the messages' single key 5.
	for k := 1; k*k <= n; k++ {
		apply(Batch[int64]{Edge: edge, Inserts: []Tuple[int64]{{Row: []int{5, 10 + k}, Val: 1}}})
		now := retained(m)
		if !slices.Equal(now[0], before[0]) {
			t.Fatalf("insert %d (tail %d² ≤ %d) replaced a base factor", k, k, n)
		}
		for v := range now[2] {
			if nonRoot(v) && now[2][v] != before[2][v] {
				t.Fatalf("insert %d replaced the base message of node %d", k, v)
			}
		}
		if got := m.ftail[edge].Len(); got != k {
			t.Fatalf("insert %d: factor tail holds %d rows, want %d", k, got, k)
		}
		if metricFolds.Value() != folds {
			t.Fatalf("insert %d folded below the bound", k)
		}
	}
	apply(Batch[int64]{Edge: edge, Inserts: []Tuple[int64]{{Row: []int{5, 50}, Val: 1}}})
	if got := metricFolds.Value() - folds; got != 1 {
		t.Fatalf("the insert crossing the bound folded %d times, want 1", got)
	}
	after := retained(m)
	for e := range after[0] {
		if replaced := after[0][e] != before[0][e]; replaced != (e == edge) {
			t.Fatalf("edge %d: base replaced = %v after the fold of edge %d", e, replaced, edge)
		}
	}
	if m.ftail[edge].Len() != 0 {
		t.Fatal("the fold left rows in the tail")
	}
	for v := range after[2] {
		if nonRoot(v) && after[2][v] != before[2][v] {
			t.Fatalf("the fold replaced the base message of node %d", v)
		}
	}
	if metricIndexRebases.Value() <= rebases {
		t.Fatal("the fold carried no index across")
	}
	if got := metricIndexBuilds.Value(); got != builds {
		t.Fatalf("a warm view built %d indexes", got-builds)
	}
}

// TestSupportCheckReadsBaseAndTail pins that a Bool view's support
// check reads each row as base ⊕ tail of its Count twin. A tuple the
// base lists is deleted once (its -1 goes to the tail) and then again;
// a tuple only inserted since is deleted once and then again. Each
// second delete fails with ErrNegativeSupport and leaves the handle as
// it was. A check that read only the tail would refuse the first
// delete; one that read only the base would accept the second.
func TestSupportCheckReadsBaseAndTail(t *testing.T) {
	const dom, n = 32, 16
	ctx := context.Background()
	_, m := diagonalPath7[bool](t, semiring.Bool{}, dom, n)
	lift := m.lift
	update := func(row []int, del bool) error {
		tu := []Tuple[bool]{{Row: row, Val: true}}
		if del {
			return m.Update(ctx, Batch[bool]{Edge: 0, Deletes: tu})
		}
		return m.Update(ctx, Batch[bool]{Edge: 0, Inserts: tu})
	}
	base := lift.q.Factors[0]
	for _, c := range []struct {
		name   string
		row    []int
		insert bool
	}{
		{"base-listed", []int{3, 3}, false},
		{"tail-only", []int{4, 20}, true},
	} {
		if c.insert {
			if err := update(c.row, false); err != nil {
				t.Fatalf("%s: insert: %v", c.name, err)
			}
		}
		if err := update(c.row, true); err != nil {
			t.Fatalf("%s: first delete: %v", c.name, err)
		}
		if lift.q.Factors[0] != base || lift.ftail[0].Len() == 0 {
			t.Fatalf("%s: the delete folded the tail; the case tests nothing", c.name)
		}
		state, ans, stats := retained(lift), answerOf(t, m), m.Stats()
		if err := update(c.row, true); !errors.Is(err, ErrNegativeSupport) {
			t.Fatalf("%s: second delete error = %v, want ErrNegativeSupport", c.name, err)
		}
		if !sameRetained(retained(lift), state) || m.Stats() != stats {
			t.Fatalf("%s: the rejected delete changed the handle's state", c.name)
		}
		if !relation.Equal(semiring.Bool{}, answerOf(t, m), ans) {
			t.Fatalf("%s: the rejected delete changed the answer", c.name)
		}
	}
}

func answerOf[T any](t *testing.T, m *Materialized[T]) *relation.Relation[T] {
	t.Helper()
	ans, err := m.Answer()
	if err != nil {
		t.Fatal(err)
	}
	return ans
}
