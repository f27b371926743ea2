package delta

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/workload"
)

// contribModel is the tests' own record of a recompute view's live
// contributions: per edge, every inserted (row, value) not yet deleted,
// in insertion order. A delete removes the first semiring-equal one.
type contribModel struct {
	s    semiring.Semiring[float64]
	live [][]Tuple[float64]
}

func (md *contribModel) insert(e int, t Tuple[float64]) { md.live[e] = append(md.live[e], t) }

func (md *contribModel) remove(e int, t Tuple[float64]) {
	i := slices.IndexFunc(md.live[e], func(c Tuple[float64]) bool {
		return slices.Equal(c.Row, t.Row) && md.s.Equal(c.Val, t.Val)
	})
	md.live[e] = slices.Delete(md.live[e], i, i+1)
}

// factors folds the live contributions into factors from scratch, each
// tuple's contributions ⊕-merged in insertion order.
func (md *contribModel) factors(h *hypergraph.Hypergraph) []*relation.Relation[float64] {
	out := make([]*relation.Relation[float64], len(md.live))
	for e, ts := range md.live {
		b := relation.NewBuilder(md.s, h.Edge(e))
		for _, t := range ts {
			b.Add(t.Row, t.Val)
		}
		out[e] = b.Build()
	}
	return out
}

// bitEqual reports whether two relations list the same rows with the
// same annotations, floats bit for bit.
func bitEqual[T any](a, b *relation.Relation[T]) bool {
	if !slices.Equal(a.Schema(), b.Schema()) || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !slices.Equal(a.Tuple(i), b.Tuple(i)) || !same(a.Value(i), b.Value(i)) {
			return false
		}
	}
	return true
}

// recomputeView materializes tpl over s with varOps, seeding every edge
// with rows random tuples on a domain of dom and values from val, and
// returns the handle with a model holding the same contributions.
func recomputeView(t *testing.T, s semiring.Semiring[float64], tpl workload.Template, varOps func(*hypergraph.Builder) map[int]semiring.Op[float64],
	dom, rows int, rng *rand.Rand, val func() float64) (*Materialized[float64], *contribModel) {
	t.Helper()
	hb := hypergraph.NewBuilder()
	for _, names := range tpl.Edges() {
		hb.Edge(names...)
	}
	h := hb.Build()
	q := &faq.Query[float64]{S: s, H: h, DomSize: dom, Factors: make([]*relation.Relation[float64], h.NumEdges())}
	for _, name := range tpl.Free {
		q.Free = append(q.Free, hb.VertexID(name))
	}
	if varOps != nil {
		q.VarOps = varOps(hb)
	}
	md := &contribModel{s: s, live: make([][]Tuple[float64], h.NumEdges())}
	for e := range q.Factors {
		for i := 0; i < rows; i++ {
			md.insert(e, Tuple[float64]{Row: []int{rng.Intn(dom), rng.Intn(dom)}, Val: val()})
		}
	}
	// The view seeds one contribution per listed tuple, its merged
	// annotation; so does the model.
	q.Factors = md.factors(h)
	for e, f := range q.Factors {
		md.live[e] = md.live[e][:0]
		for i := 0; i < f.Len(); i++ {
			md.insert(e, Tuple[float64]{Row: []int{int(f.Tuple(i)[0]), int(f.Tuple(i)[1])}, Val: f.Value(i)})
		}
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
	if m.Strategy() != StrategyRecompute {
		t.Fatalf("strategy = %v, want recompute", m.Strategy())
	}
	return m, md
}

// TestRecomputeMessagesMatchFromScratch is the group recompute's
// differential: after every update of a MinPlus, a MaxTimes and two
// general-FAQ views (a max and a product aggregate over SumProduct),
// every retained factor and message equals a from-scratch faq.Messages
// over the model's factors, bit for bit. Annotations are arbitrary
// floats, so a group folded in any order but the full pass's would
// show. Updates are single inserts and deletes and batches of up to
// eight, over every template, the cyclic one included (its factorless
// core re-runs whole at the root), over a triangle with a two-edge tail
// whose free end puts the factorless core below the root (a whole
// re-run then diffs against a message tail), and over each shape with
// no free variable (its root message is a scalar, which re-runs whole
// over its factor's base and tail).
func TestRecomputeMessagesMatchFromScratch(t *testing.T) {
	maxOf := func(name string) func(*hypergraph.Builder) map[int]semiring.Op[float64] {
		return func(hb *hypergraph.Builder) map[int]semiring.Op[float64] {
			return map[int]semiring.Op[float64]{hb.VertexID(name): semiring.AddOf[float64](semiring.MaxTimes{})}
		}
	}
	prodOf := func(name string) func(*hypergraph.Builder) map[int]semiring.Op[float64] {
		return func(hb *hypergraph.Builder) map[int]semiring.Op[float64] {
			return map[int]semiring.Op[float64]{hb.VertexID(name): semiring.MulOf[float64](semiring.SumProduct{})}
		}
	}
	// The variable each general FAQ aggregates its own way, per template.
	inner := map[string][2]string{
		"path7": {"A3", "A7"}, "star6": {"B2", "B6"}, "tree6": {"L", "TR"}, "tri-pendant": {"A", "D"}, "tri-tail": {"B", "D"},
	}
	triTail := workload.Template{Name: "tri-tail", Spec: "A,B;B,C;A,C;C,D;D,E", Free: []string{"E"}}
	const dom, rows, ops = 5, 12, 150
	for _, tpl := range append(workload.Templates(), triTail) {
		cases := []struct {
			name   string
			s      semiring.Semiring[float64]
			varOps func(*hypergraph.Builder) map[int]semiring.Op[float64]
			scalar bool
		}{
			{"minplus", semiring.MinPlus{}, nil, false},
			{"maxtimes", semiring.MaxTimes{}, nil, false},
			{"general-max", semiring.SumProduct{}, maxOf(inner[tpl.Name][0]), false},
			{"general-product", semiring.SumProduct{}, prodOf(inner[tpl.Name][1]), false},
			{"minplus-scalar", semiring.MinPlus{}, nil, true},
		}
		for ci, c := range cases {
			t.Run(tpl.Name+"/"+c.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(17*ci + len(tpl.Name))))
				val := func() float64 { return 0.25 + rng.Float64() }
				tp := tpl
				if c.scalar {
					tp.Free = nil
				}
				m, md := recomputeView(t, c.s, tp, c.varOps, dom, rows, rng, val)
				for op := 0; op < ops; op++ {
					e := rng.Intn(len(md.live))
					b := Batch[float64]{Edge: e}
					size := 1
					if op%5 == 4 {
						size = 1 + rng.Intn(8)
					}
					for k := 0; k < size; k++ {
						if rng.Intn(2) == 0 {
							b.Inserts = append(b.Inserts, Tuple[float64]{Row: []int{rng.Intn(dom), rng.Intn(dom)}, Val: val()})
						}
					}
					for _, tu := range b.Inserts {
						md.insert(e, tu)
					}
					for k := len(b.Inserts); k < size && len(md.live[e]) > 0; k++ {
						tu := md.live[e][rng.Intn(len(md.live[e]))]
						md.remove(e, tu)
						b.Deletes = append(b.Deletes, tu)
					}
					if err := m.Update(context.Background(), b); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
					ref := *m.q
					ref.Factors = md.factors(m.q.H)
					want, _, err := faq.Messages(context.Background(), &ref, m.p, faq.SolveOptions{})
					if err != nil {
						t.Fatal(err)
					}
					for f := range ref.Factors {
						if !bitEqual(factorOf(m, f), ref.Factors[f]) {
							t.Fatalf("op %d: factor %d differs from its contributions' fold", op, f)
						}
					}
					for v := range want {
						if !bitEqual(messageOf(m, v), want[v]) {
							t.Fatalf("op %d (edge %d, %d inserts, %d deletes): message of node %d differs from a from-scratch pass", op, e, len(b.Inserts), len(b.Deletes), v)
						}
					}
				}
			})
		}
	}
}

// TestNonImprovingInsertStopsEarly pins the early stop on a path7
// MinPlus view whose every factor lists (j, j) at cost 0. An insert that
// does not beat its group's min leaves every message's base and tail
// the very same relations: a new tuple changes only its factor, and a
// second, larger contribution of a listed tuple not even that. An
// insert that beats the min changes every message from its node to the
// root.
func TestNonImprovingInsertStopsEarly(t *testing.T) {
	const edge = 6
	s := semiring.MinPlus{}
	q, m := diagonalPath7(t, s, 8, 4)
	ctx := context.Background()
	insert := func(row []int, val float64) {
		t.Helper()
		if err := m.Update(ctx, Batch[float64]{Edge: edge, Inserts: []Tuple[float64]{{Row: row, Val: val}}}); err != nil {
			t.Fatal(err)
		}
		q.Factors[edge] = addTuple(s, q.Factors[edge], row, val)
		want, _, err := faq.Messages(ctx, q, m.p, faq.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if !bitEqual(messageOf(m, v), want[v]) {
				t.Fatalf("node %d's message after inserting %v at %g differs from a from-scratch pass", v, row, val)
			}
		}
	}

	before := retained(m)  // bases, tails and messages
	insert([]int{0, 5}, 3) // a new tuple in group A6 = 0, whose min is 0
	now := retained(m)
	if !slices.Equal(now[2], before[2]) || !slices.Equal(now[3], before[3]) {
		t.Fatal("a non-improving new tuple changed a message")
	}
	for e := range before[0] {
		if changed := now[0][e] != before[0][e] || now[1][e] != before[1][e]; changed != (e == edge) {
			t.Fatalf("factor %d changed = %v after a new tuple on edge %d", e, changed, edge)
		}
	}

	before = retained(m)
	insert([]int{1, 1}, 2) // a second contribution of a listed tuple
	if !sameRetained(retained(m), before) {
		t.Fatal("a contribution that does not lower its tuple's min changed the factor or a message")
	}
	if m.ledgers[edge].Len() != 1 {
		t.Fatalf("ledger lists %d tuples, want the one with two contributions", m.ledgers[edge].Len())
	}

	// A min lowered by less than MinPlus.Equal's tolerance still changed:
	// insert compares every message with a from-scratch pass bit for bit.
	insert([]int{2, 7}, -1e-300)

	before = retained(m)
	insert([]int{0, 6}, -1) // beats group A6 = 0, and with it every path through it
	for v := m.p.NodeOf[edge]; v != -1; v = m.p.Parent[v] {
		if m.msgs[v] == before[2][v] && m.mtail[v] == before[3][v] {
			t.Fatalf("an improving insert left node %d's message as it was", v)
		}
	}
}

// factorOf and messageOf return edge e's factor and node v's message
// of a recompute view: the base with the tail written over it.
func factorOf[T any](m *Materialized[T], e int) *relation.Relation[T] {
	return merged(m.s, m.q.Factors[e], m.ftail[e])
}

func messageOf[T any](m *Materialized[T], v int) *relation.Relation[T] {
	return merged(m.s, m.msgs[v], m.mtail[v])
}

// addTuple returns r with one more contribution v for row, ⊕-merged.
func addTuple[T any](s semiring.Semiring[T], r *relation.Relation[T], row []int, v T) *relation.Relation[T] {
	b := relation.NewBuilder(s, r.Schema())
	for i := 0; i < r.Len(); i++ {
		b.AddRow(r.Tuple(i), r.Value(i))
	}
	b.Add(row, v)
	return b.Build()
}

// TestRecomputeTailFoldsPastSqrtN pins the base-and-tail factor of a
// recompute view. Every factor of a path7 MinPlus view lists 100 rows.
// A warm-up inserts and deletes (1, 0) on every edge, which builds the
// index slots and leaves in each tail a 0 on a row the base does not
// list. Below the fold bound, new tuples on an internal edge leave every
// base factor the very same relation and only grow the tail; the insert
// that makes |tail|² > 100 folds exactly once, drops the stale 0 and
// carries the base's indexes across. No index is built once the view is
// warm, and every message equals a from-scratch pass.
func TestRecomputeTailFoldsPastSqrtN(t *testing.T) {
	const dom, n, edge = 128, 100, 3
	s := semiring.MinPlus{}
	ctx := context.Background()
	q, m := diagonalPath7(t, s, dom, n)
	apply := func(b Batch[float64]) {
		t.Helper()
		if err := m.Update(ctx, b); err != nil {
			t.Fatal(err)
		}
		want, _, err := faq.Messages(ctx, q, m.p, faq.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if !bitEqual(messageOf(m, v), want[v]) {
				t.Fatalf("node %d's message after %+v differs from a from-scratch pass", v, b)
			}
		}
	}
	// (1, 0) at cost -1 beats every path through it, so it reaches the
	// root and probes every index slot on its way.
	one := []Tuple[float64]{{Row: []int{1, 0}, Val: -1}}
	for e, f := range q.Factors {
		q.Factors[e] = addTuple(s, f, one[0].Row, one[0].Val)
		apply(Batch[float64]{Edge: e, Inserts: one})
		q.Factors[e] = f
		apply(Batch[float64]{Edge: e, Deletes: one})
		if m.ftail[e].Len() != 1 || !s.IsZero(m.ftail[e].Value(0)) {
			t.Fatalf("edge %d: an insert and its delete left tail %v, want one 0", e, m.ftail[e])
		}
	}
	builds, rebases, folds := metricIndexBuilds.Value(), metricIndexRebases.Value(), metricFolds.Value()
	before := retained(m)
	insert := func(k int) {
		t.Helper()
		row := []int{5, 10 + k}
		q.Factors[edge] = addTuple(s, q.Factors[edge], row, -float64(k))
		apply(Batch[float64]{Edge: edge, Inserts: []Tuple[float64]{{Row: row, Val: -float64(k)}}})
	}
	for k := 1; (k+1)*(k+1) <= n; k++ {
		insert(k)
		if !slices.Equal(retained(m)[0], before[0]) {
			t.Fatalf("insert %d (tail %d² ≤ %d) replaced a base factor", k, k+1, n)
		}
		if got := m.ftail[edge].Len(); got != k+1 {
			t.Fatalf("insert %d: factor tail holds %d rows, want %d", k, got, k+1)
		}
		if metricFolds.Value() != folds {
			t.Fatalf("insert %d folded below the bound", k)
		}
	}
	insert(10)
	if got := metricFolds.Value() - folds; got != 1 {
		t.Fatalf("the insert crossing the bound folded %d times, want 1", got)
	}
	after := retained(m)
	for e := range after[0] {
		if replaced := after[0][e] != before[0][e]; replaced != (e == edge) {
			t.Fatalf("edge %d: base replaced = %v after the fold of edge %d", e, replaced, edge)
		}
	}
	if m.ftail[edge].Len() != 0 || m.q.Factors[edge].Len() != n+10 {
		t.Fatalf("the fold left %d rows in the tail and %d in the base, want 0 and %d", m.ftail[edge].Len(), m.q.Factors[edge].Len(), n+10)
	}
	if metricIndexRebases.Value() <= rebases {
		t.Fatal("the fold carried no index across")
	}
	if got := metricIndexBuilds.Value(); got != builds {
		t.Fatalf("a warm view built %d indexes", got-builds)
	}
}

// TestLedgerBoundedByLiveContributions runs 10 000 insert/delete pairs
// through a tree6 MinPlus view over a small domain, so tuples often
// gather several contributions and drain again. After every pair the
// ledger and the factor together hold exactly the live contributions,
// and the ledger lists exactly the tuples with two or more: an emptied
// entry is gone, not kept as a tombstone.
func TestLedgerBoundedByLiveContributions(t *testing.T) {
	const dom, pairs = 4, 10000
	rng := rand.New(rand.NewSource(7))
	tpl, _ := workload.TemplateByName("tree6")
	vals := []float64{0.5, 1, 1.5}
	val := func() float64 { return vals[rng.Intn(len(vals))] }
	m, md := recomputeView(t, semiring.MinPlus{}, tpl, nil, dom, 6, rng, val)
	ctx := context.Background()
	for i := 0; i < pairs; i++ {
		e := rng.Intn(len(md.live))
		ins := Tuple[float64]{Row: []int{rng.Intn(dom), rng.Intn(dom)}, Val: val()}
		md.insert(e, ins)
		if err := m.Update(ctx, Batch[float64]{Edge: e, Inserts: []Tuple[float64]{ins}}); err != nil {
			t.Fatal(err)
		}
		del := md.live[e][rng.Intn(len(md.live[e]))]
		md.remove(e, del)
		if err := m.Update(ctx, Batch[float64]{Edge: e, Deletes: []Tuple[float64]{del}}); err != nil {
			t.Fatal(err)
		}
		held, multi := ledgerHolds(m, e), 0
		counts := map[string]int{}
		for _, c := range md.live[e] {
			if counts[fmt.Sprint(c.Row)]++; counts[fmt.Sprint(c.Row)] == 2 {
				multi++
			}
		}
		if held != len(md.live[e]) || m.ledgers[e].Len() != multi {
			t.Fatalf("pair %d, edge %d: ledger and factor hold %d contributions and the ledger lists %d tuples; live: %d contributions, %d tuples with two or more",
				i, e, held, m.ledgers[e].Len(), len(md.live[e]), multi)
		}
	}
}

// ledgerHolds counts the contributions edge e's ledger and factor hold:
// every contribution the ledger lists, plus one per factor row the
// ledger does not list.
func ledgerHolds[T any](m *Materialized[T], e int) int {
	lg, f := m.ledgers[e], factorOf(m, e)
	n := 0
	for i := 0; i < lg.Len(); i++ {
		n += len(lg.Value(i))
	}
	for i := 0; i < f.Len(); i++ {
		if _, ok := relation.LookupRow(lg, f.Tuple(i)); !ok {
			n++
		}
	}
	return n
}

// TestBoolAnswerSharesLiftedRows pins that a support view's answer is
// the lifted Count answer's row buffer relabelled, not a re-sorted
// copy, and that it equals a from-scratch pass after an update.
func TestBoolAnswerSharesLiftedRows(t *testing.T) {
	s := semiring.Bool{}
	q, m := diagonalPath7(t, s, 8, 4)
	ctx := context.Background()
	if err := m.Update(ctx, Batch[bool]{Edge: 6, Inserts: []Tuple[bool]{{Row: []int{3, 5}, Val: true}}}); err != nil {
		t.Fatal(err)
	}
	q.Factors[6] = addTuple(s, q.Factors[6], []int{3, 5}, true)
	ans, err := m.Answer()
	if err != nil {
		t.Fatal(err)
	}
	lifted := m.lift.msgs[m.lift.p.Root]
	if ans.Len() == 0 || ans.Len() != lifted.Len() || &ans.Tuple(0)[0] != &lifted.Tuple(0)[0] {
		t.Fatal("the Bool answer does not share the lifted answer's rows")
	}
	want, _, err := faq.Messages(ctx, q, m.p, faq.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(ans, want[m.p.Root]) {
		t.Fatalf("Bool answer %v differs from a from-scratch pass %v", ans, want[m.p.Root])
	}
}
