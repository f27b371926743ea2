package cluster

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/delta"
	"repro/internal/delta/churn"
	"repro/internal/faq"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/protocol"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/topology"
	"repro/internal/workload"
)

// coreBelowRoot is a triangle with a three-edge pendant path whose far
// end is the only free variable: planning roots the GHD at the path's
// end, so the factorless core node sits below the root.
var coreBelowRoot = workload.Template{Name: "core-below-root", Spec: "X0,X1;X1,X2;X0,X2;X2,X3;X3,X4;X4,X5", Free: []string{"X5"}}

// randomFactors fills every edge of h with testRows seeded Count rows.
func randomFactors(h *hypergraph.Hypergraph, r *rand.Rand) []*relation.Relation[int64] {
	factors := make([]*relation.Relation[int64], h.NumEdges())
	for e := range factors {
		b := relation.NewBuilder[int64](semiring.Count{}, h.Edge(e))
		row := make([]int32, len(h.Edge(e)))
		for i := 0; i < testRows; i++ {
			for k := range row {
				row[k] = int32(r.Intn(testDom))
			}
			b.AddRow(row, int64(1+r.Intn(4)))
		}
		factors[e] = b.Build()
	}
	return factors
}

// TestPassEvaluatorsAgree is the cross-evaluator differential of the
// shared Theorem G.3 pass plan: on every standing template and on the
// core-below-root shape, the local pass (faq.SolveGHD), the retaining
// pass after one update (delta.Materialize + Update) against a
// from-scratch solve, the cluster over SimTransport at 1, 2 and 8
// workers, and the protocol runner must all return the same Count
// answer, bit for bit.
func TestPassEvaluatorsAgree(t *testing.T) {
	sc := semiring.Count{}
	for _, tpl := range append(workload.Templates(), coreBelowRoot) {
		t.Run(tpl.Name, func(t *testing.T) {
			q, err := churn.BuildQuery(sc, tpl, testDom, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(91))
			q.Factors = randomFactors(q.H, r)
			g, err := faq.PlanGHD(q.H, q.Free)
			if err != nil {
				t.Fatal(err)
			}
			want := mustSolve(t, q, g)

			for _, w := range []int{1, 2, 8} {
				solver, err := NewSolver[int64](simClient(t, w), "count")
				if err != nil {
					t.Fatal(err)
				}
				got, err := solver.SolveGHD(context.Background(), q, g)
				if err != nil {
					t.Fatalf("cluster W=%d: %v", w, err)
				}
				if !relation.Equal(sc, got, want) {
					t.Fatalf("cluster W=%d differs from faq.SolveGHD", w)
				}
			}

			topo := topology.Line(4)
			assign := make(protocol.Assignment, q.H.NumEdges())
			for e := range assign {
				assign[e] = e % topo.N()
			}
			got, _, err := protocol.RunOnGHD(&protocol.Setup[int64]{Q: q, G: topo, Assign: assign, Output: 3}, g)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.Equal(sc, got, want) {
				t.Fatal("protocol.RunOnGHD differs from faq.SolveGHD")
			}

			checkRetainingPass(t, q, g, want, r)
		})
	}
}

// checkRetainingPass materializes q on g, checks the retained answer
// against want,
// then applies one update (inserts on the first edge, a delete of a
// listed tuple on the last) and checks the maintained answer against a
// from-scratch solve over independently updated factors.
func checkRetainingPass(t *testing.T, q *faq.Query[int64], g *ghd.GHD, want *relation.Relation[int64], r *rand.Rand) {
	t.Helper()
	sc := semiring.Count{}
	m, err := delta.Materialize(context.Background(), q, g, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got, err := m.Answer(); err != nil || !relation.Equal(sc, got, want) {
		t.Fatalf("materialized answer differs from faq.SolveGHD (err %v)", err)
	}

	first, last := 0, q.H.NumEdges()-1
	ins := delta.Tuple[int64]{Row: make([]int, len(q.H.Edge(first))), Val: 2}
	for k := range ins.Row {
		ins.Row[k] = r.Intn(testDom)
	}
	lf := q.Factors[last]
	del := delta.Tuple[int64]{Row: make([]int, lf.Arity()), Val: lf.Value(0)}
	for k, x := range lf.Tuple(0) {
		del.Row[k] = int(x)
	}
	if err := m.Update(context.Background(),
		delta.Batch[int64]{Edge: first, Inserts: []delta.Tuple[int64]{ins}},
		delta.Batch[int64]{Edge: last, Deletes: []delta.Tuple[int64]{del}},
	); err != nil {
		t.Fatal(err)
	}

	updated := *q
	updated.Factors = append([]*relation.Relation[int64](nil), q.Factors...)
	b := relation.NewBuilder[int64](sc, q.H.Edge(first))
	for i := 0; i < q.Factors[first].Len(); i++ {
		b.AddRow(q.Factors[first].Tuple(i), q.Factors[first].Value(i))
	}
	b.Add(ins.Row, ins.Val)
	updated.Factors[first] = b.Build()
	b = relation.NewBuilder[int64](sc, q.H.Edge(last))
	for i := 1; i < lf.Len(); i++ {
		b.AddRow(lf.Tuple(i), lf.Value(i))
	}
	updated.Factors[last] = b.Build()

	got, err := m.Answer()
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(sc, got, mustSolve(t, &updated, g)) {
		t.Fatal("delta answer after Update differs from a from-scratch faq.SolveGHD")
	}
}

func mustSolve(t *testing.T, q *faq.Query[int64], g *ghd.GHD) *relation.Relation[int64] {
	t.Helper()
	ans, _, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ans
}
