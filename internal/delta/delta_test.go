package delta_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/delta"
	"repro/internal/delta/churn"
	"repro/internal/faq"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/workload"
)

// materializeTpl builds a seeded query over a workload template and
// materializes it; returns the handle plus the query (whose factors the
// tests mutate in parallel to form references).
func materializeTpl[T any](t *testing.T, s semiring.Semiring[T], tplName string, rows map[int][]delta.Tuple[T]) (*delta.Materialized[T], *faq.Query[T]) {
	t.Helper()
	tpl, ok := workload.TemplateByName(tplName)
	if !ok {
		t.Fatalf("unknown template %s", tplName)
	}
	q, err := churn.BuildQuery(s, tpl, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for e, ts := range rows {
		b := relation.NewBuilder(s, q.H.Edge(e))
		for _, tu := range ts {
			b.Add(tu.Row, tu.Val)
		}
		q.Factors[e] = b.Build()
	}
	g, err := faq.PlanGHD(q.H, q.Free)
	if err != nil {
		t.Fatal(err)
	}
	m, err := delta.Materialize(context.Background(), q, g, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, q
}

// pathRows seeds every edge of path7 with the diagonal pairs (i, i) for
// i in 0..3, so the path joins end to end.
func pathRows[T any](one T) map[int][]delta.Tuple[T] {
	rows := map[int][]delta.Tuple[T]{}
	for e := 0; e < 7; e++ {
		for i := 0; i < 4; i++ {
			rows[e] = append(rows[e], delta.Tuple[T]{Row: []int{i, i}, Val: one})
		}
	}
	return rows
}

func answerOf[T any](t *testing.T, m *delta.Materialized[T]) *relation.Relation[T] {
	t.Helper()
	ans, err := m.Answer()
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

func TestStrategySelection(t *testing.T) {
	cases := []struct {
		name string
		want delta.Strategy
		got  delta.Strategy
	}{}
	mb, _ := materializeTpl(t, semiring.Bool{}, "path7", pathRows(true))
	cases = append(cases, struct {
		name string
		want delta.Strategy
		got  delta.Strategy
	}{"bool", delta.StrategySupport, mb.Strategy()})
	mc, _ := materializeTpl(t, semiring.Count{}, "path7", pathRows(int64(1)))
	cases = append(cases, struct {
		name string
		want delta.Strategy
		got  delta.Strategy
	}{"count", delta.StrategyRing, mc.Strategy()})
	mm, _ := materializeTpl(t, semiring.MinPlus{}, "path7", pathRows(0.0))
	cases = append(cases, struct {
		name string
		want delta.Strategy
		got  delta.Strategy
	}{"minplus", delta.StrategyRecompute, mm.Strategy()})
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: strategy = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// maxOp is a max aggregate over non-negative floats — a valid semiring
// aggregate sharing identities with SumProduct.
type maxOp struct{}

func (maxOp) Identity() float64 { return 0 }
func (maxOp) Combine(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
func (maxOp) IsProduct() bool { return false }

// TestGeneralFAQRecompute pins that a query with per-variable operator
// overrides (general FAQ, not SS) falls back to the recompute strategy
// and still answers updates correctly.
func TestGeneralFAQRecompute(t *testing.T) {
	tpl, _ := workload.TemplateByName("path7")
	q, err := churn.BuildQuery(semiring.SumProduct{}, tpl, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < q.H.NumEdges(); e++ {
		b := relation.NewBuilder(semiring.SumProduct{}, q.H.Edge(e))
		for i := 0; i < 4; i++ {
			b.Add([]int{i, i}, float64(i+1))
		}
		q.Factors[e] = b.Build()
	}
	// Aggregate the last variable with max instead of the semiring ⊕.
	last := q.H.NumVertices() - 1
	q.VarOps = map[int]semiring.Op[float64]{last: maxOp{}}
	g, err := faq.PlanGHD(q.H, q.Free)
	if err != nil {
		t.Fatal(err)
	}
	m, err := delta.Materialize(context.Background(), q, g, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Strategy() != delta.StrategyRecompute {
		t.Fatalf("general FAQ strategy = %v, want recompute", m.Strategy())
	}
	if err := m.Update(context.Background(), delta.Batch[float64]{
		Edge: 6, Inserts: []delta.Tuple[float64]{{Row: []int{1, 3}, Val: 9}},
	}); err != nil {
		t.Fatal(err)
	}
	q.Factors[6] = addRow(semiring.SumProduct{}, q.Factors[6], []int{1, 3}, 9)
	want, _, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(semiring.SumProduct{}, answerOf(t, m), want) {
		t.Fatal("general FAQ recompute diverges from rebuild")
	}
}

func addRow[T any](s semiring.Semiring[T], r *relation.Relation[T], row []int, v T) *relation.Relation[T] {
	b := relation.NewBuilder(s, r.Schema())
	for i := 0; i < r.Len(); i++ {
		b.AddRow(r.Tuple(i), r.Value(i))
	}
	b.Add(row, v)
	return b.Build()
}

func TestBoolSupportSemantics(t *testing.T) {
	ctx := context.Background()
	m, _ := materializeTpl(t, semiring.Bool{}, "path7", pathRows(true))
	base := answerOf(t, m)
	if base.Len() == 0 {
		t.Fatal("seed answer empty; fixture broken")
	}

	// Insert the same tuple twice, delete once: support 2-1 = 1 keeps
	// the tuple alive, so the answer must be unchanged from after the
	// first insert.
	ins := delta.Batch[bool]{Edge: 0, Inserts: []delta.Tuple[bool]{{Row: []int{5, 5}, Val: true}}}
	if err := m.Update(ctx, ins); err != nil {
		t.Fatal(err)
	}
	afterOne := answerOf(t, m)
	if err := m.Update(ctx, ins); err != nil {
		t.Fatal(err)
	}
	del := delta.Batch[bool]{Edge: 0, Deletes: []delta.Tuple[bool]{{Row: []int{5, 5}, Val: true}}}
	if err := m.Update(ctx, del); err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(semiring.Bool{}, answerOf(t, m), afterOne) {
		t.Fatal("support 2-1 should equal support 1")
	}
	// Second delete drains support to 0: back to the base answer.
	if err := m.Update(ctx, del); err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(semiring.Bool{}, answerOf(t, m), base) {
		t.Fatal("support 0 should restore the pre-insert answer")
	}
	// Third delete would take support negative: typed error, handle
	// state unchanged and reusable.
	err := m.Update(ctx, del)
	if !errors.Is(err, delta.ErrNegativeSupport) {
		t.Fatalf("over-delete error = %v, want ErrNegativeSupport", err)
	}
	if !relation.Equal(semiring.Bool{}, answerOf(t, m), base) {
		t.Fatal("failed update must not change the answer")
	}
	if err := m.Update(ctx, ins); err != nil {
		t.Fatalf("handle must stay usable after a rejected update: %v", err)
	}
	if !relation.Equal(semiring.Bool{}, answerOf(t, m), afterOne) {
		t.Fatal("post-rejection insert diverges")
	}
}

func TestRecomputeLedgerSemantics(t *testing.T) {
	ctx := context.Background()
	m, _ := materializeTpl(t, semiring.MinPlus{}, "path7", pathRows(1.0))
	base := answerOf(t, m)

	// Two equal contributions for a fresh tuple; deleting one must keep
	// the tuple (idempotent min destroys multiplicity — the ledger
	// carries it).
	ins := delta.Batch[float64]{Edge: 0, Inserts: []delta.Tuple[float64]{{Row: []int{6, 6}, Val: 2}}}
	if err := m.Update(ctx, ins); err != nil {
		t.Fatal(err)
	}
	afterOne := answerOf(t, m)
	if err := m.Update(ctx, ins); err != nil {
		t.Fatal(err)
	}
	del := delta.Batch[float64]{Edge: 0, Deletes: []delta.Tuple[float64]{{Row: []int{6, 6}, Val: 2}}}
	if err := m.Update(ctx, del); err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(semiring.MinPlus{}, answerOf(t, m), afterOne) {
		t.Fatal("deleting one of two equal contributions must keep the tuple")
	}
	if err := m.Update(ctx, del); err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(semiring.MinPlus{}, answerOf(t, m), base) {
		t.Fatal("deleting the last contribution must restore the base answer")
	}
	// Deleting a contribution that was never inserted (wrong value) is
	// a typed error and leaves the handle unchanged.
	err := m.Update(ctx, delta.Batch[float64]{
		Edge: 0, Deletes: []delta.Tuple[float64]{{Row: []int{0, 0}, Val: 99}},
	})
	if !errors.Is(err, delta.ErrNoSuchTuple) {
		t.Fatalf("unlisted delete error = %v, want ErrNoSuchTuple", err)
	}
	if !relation.Equal(semiring.MinPlus{}, answerOf(t, m), base) {
		t.Fatal("failed update must not change the answer")
	}
	st := m.Stats()
	if st.Recomputes == 0 || st.Updates == 0 {
		t.Fatalf("stats = %+v, want nonzero updates and recomputes", st)
	}
}

// TestUpdateAtomicity pins all-or-nothing multi-batch updates: a later
// invalid batch must roll back the whole call.
func TestUpdateAtomicity(t *testing.T) {
	ctx := context.Background()
	m, _ := materializeTpl(t, semiring.MinPlus{}, "path7", pathRows(1.0))
	base := answerOf(t, m)
	err := m.Update(ctx,
		delta.Batch[float64]{Edge: 0, Inserts: []delta.Tuple[float64]{{Row: []int{7, 7}, Val: 3}}},
		delta.Batch[float64]{Edge: 3, Deletes: []delta.Tuple[float64]{{Row: []int{7, 7}, Val: 123}}},
	)
	if !errors.Is(err, delta.ErrNoSuchTuple) {
		t.Fatalf("err = %v, want ErrNoSuchTuple", err)
	}
	if !relation.Equal(semiring.MinPlus{}, answerOf(t, m), base) {
		t.Fatal("partial multi-batch update leaked into the handle")
	}
	if st := m.Stats(); st.Updates != 0 {
		t.Fatalf("failed update counted: %+v", st)
	}
}

func TestMultiBatchUpdate(t *testing.T) {
	ctx := context.Background()
	s := semiring.Count{}
	m, q := materializeTpl(t, s, "tri-pendant", map[int][]delta.Tuple[int64]{
		0: {{Row: []int{0, 0}, Val: 1}, {Row: []int{1, 1}, Val: 2}},
		1: {{Row: []int{0, 0}, Val: 1}, {Row: []int{1, 1}, Val: 1}},
		2: {{Row: []int{0, 0}, Val: 1}, {Row: []int{1, 1}, Val: 3}},
		3: {{Row: []int{0, 2}, Val: 1}, {Row: []int{1, 3}, Val: 1}},
	})
	if err := m.Update(ctx,
		delta.Batch[int64]{Edge: 0, Inserts: []delta.Tuple[int64]{{Row: []int{2, 2}, Val: 5}}},
		delta.Batch[int64]{Edge: 3, Deletes: []delta.Tuple[int64]{{Row: []int{0, 2}, Val: 1}}},
		delta.Batch[int64]{Edge: 1, Inserts: []delta.Tuple[int64]{{Row: []int{2, 2}, Val: 1}}},
	); err != nil {
		t.Fatal(err)
	}
	q.Factors[0] = addRow(s, q.Factors[0], []int{2, 2}, 5)
	q.Factors[3] = addRow(s, q.Factors[3], []int{0, 2}, -1)
	q.Factors[1] = addRow(s, q.Factors[1], []int{2, 2}, 1)
	g, err := faq.PlanGHD(q.H, q.Free)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(s, answerOf(t, m), want) {
		t.Fatal("multi-batch update on the fat-root template diverges from rebuild")
	}
}

func TestValidationErrors(t *testing.T) {
	ctx := context.Background()
	m, _ := materializeTpl(t, semiring.Count{}, "path7", pathRows(int64(1)))
	base := answerOf(t, m)
	cases := []delta.Batch[int64]{
		{Edge: 99, Inserts: []delta.Tuple[int64]{{Row: []int{0, 0}, Val: 1}}},
		{Edge: -1, Inserts: []delta.Tuple[int64]{{Row: []int{0, 0}, Val: 1}}},
		{Edge: 0, Inserts: []delta.Tuple[int64]{{Row: []int{0}, Val: 1}}},       // arity
		{Edge: 0, Inserts: []delta.Tuple[int64]{{Row: []int{0, 800}, Val: 1}}},  // domain
		{Edge: 0, Deletes: []delta.Tuple[int64]{{Row: []int{-3, 0}, Val: 1}}},   // negative coordinate
		{Edge: 0, Inserts: []delta.Tuple[int64]{{Row: []int{0, 0, 0}, Val: 1}}}, // arity high
	}
	for i, b := range cases {
		if err := m.Update(ctx, b); err == nil {
			t.Errorf("case %d: invalid batch accepted", i)
		}
	}
	if !relation.Equal(semiring.Count{}, answerOf(t, m), base) {
		t.Fatal("rejected batches changed the answer")
	}
	if st := m.Stats(); st.Updates != 0 {
		t.Fatalf("rejected batches counted as updates: %+v", st)
	}
}

func TestClosedHandle(t *testing.T) {
	ctx := context.Background()
	m, _ := materializeTpl(t, semiring.Count{}, "path7", pathRows(int64(1)))
	m.Close()
	m.Close() // idempotent
	if _, err := m.Answer(); !errors.Is(err, delta.ErrClosed) {
		t.Fatalf("Answer on closed = %v, want ErrClosed", err)
	}
	err := m.Update(ctx, delta.Batch[int64]{Edge: 0, Inserts: []delta.Tuple[int64]{{Row: []int{0, 0}, Val: 1}}})
	if !errors.Is(err, delta.ErrClosed) {
		t.Fatalf("Update on closed = %v, want ErrClosed", err)
	}
}

// TestFreeOutsideRoot pins the typed planning error: materializing a
// query whose free variables escape the chosen root bag must wrap
// faq.ErrFreeOutsideRoot.
func TestFreeOutsideRoot(t *testing.T) {
	tpl, _ := workload.TemplateByName("path7")
	q, err := churn.BuildQuery(semiring.Count{}, tpl, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := faq.PlanGHD(q.H, q.Free)
	if err != nil {
		t.Fatal(err)
	}
	// Re-point the free set at the far end of the path; the GHD was
	// rooted for the original free variable.
	q.Free = []int{q.H.NumVertices() - 1}
	if _, err := delta.Materialize(context.Background(), q, g, delta.Options{}); !errors.Is(err, faq.ErrFreeOutsideRoot) {
		t.Fatalf("err = %v, want ErrFreeOutsideRoot", err)
	}
}
