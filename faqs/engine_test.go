package faqs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/service"
)

// templates are the mixed-workload query shapes: a long path, a
// symmetric star, a balanced binary tree, and a cyclic triangle with a
// pendant edge.
var templates = []struct {
	name string
	spec string
	free string
}{
	{"path7", "A0,A1;A1,A2;A2,A3;A3,A4;A4,A5;A5,A6;A6,A7", "A0"},
	{"star6", "C,B1;C,B2;C,B3;C,B4;C,B5;C,B6", "C"},
	{"tree6", "R,L;R,T;L,LL;L,LR;T,TL;T,TR", "R"},
	{"tri-pendant", "A,B;B,C;A,C;C,D", "C"},
}

func parseSpec(spec string) [][]string {
	var edges [][]string
	for _, part := range strings.Split(spec, ";") {
		edges = append(edges, strings.Split(part, ","))
	}
	return edges
}

// buildTemplate instantiates one template over sem with deterministic
// random data: the data depends only on (seed, shape), never on the
// attribute names, so renamed variants carry identical relations.
func buildTemplate(t testing.TB, sem Semiring, spec, free string, rename func(string) string, seed int64, n, dom int) *Query {
	t.Helper()
	if rename == nil {
		rename = func(s string) string { return s }
	}
	r := rand.New(rand.NewSource(seed))
	qb := NewQuery(sem).Domain(dom).Free(rename(free))
	for _, names := range parseSpec(spec) {
		attrs := make([]string, len(names))
		for i, name := range names {
			attrs[i] = rename(name)
		}
		rb := NewRelationBuilder(MustSchema(attrs...))
		tuple := make([]int, len(attrs))
		for ti := 0; ti < n; ti++ {
			for i := range tuple {
				tuple[i] = r.Intn(dom)
			}
			// Deterministic values exercise every conversion; the float
			// is derived from the tuple so duplicate-merging stays
			// order-independent per semiring tolerance.
			rb.AddValued(0.5+float64(tuple[0]%7)/3, tuple...)
		}
		rel, err := rb.Relation()
		if err != nil {
			t.Fatal(err)
		}
		qb.Factor(rel)
	}
	q, err := qb.Build()
	if err != nil {
		t.Fatalf("build %s over %s: %v", spec, sem, err)
	}
	return q
}

// referenceSolve computes the per-request-planning reference answer via
// faq.Solve on the query's typed form — the acceptance baseline.
func referenceSolve(t testing.TB, q *Query) *Result {
	t.Helper()
	switch tq := q.typed.(type) {
	case *faq.Query[bool]:
		return refSolve(t, q, tq)
	case *faq.Query[int64]:
		return refSolve(t, q, tq)
	case *faq.Query[float64]:
		return refSolve(t, q, tq)
	case *faq.Query[byte]:
		return refSolve(t, q, tq)
	}
	t.Fatalf("unknown typed query %T", q.typed)
	return nil
}

func refSolve[T any](t testing.TB, q *Query, tq *faq.Query[T]) *Result {
	t.Helper()
	rel, err := faq.Solve(tq)
	if err != nil {
		t.Fatalf("faq.Solve: %v", err)
	}
	tr := &typedRunner[T]{im: q.sem.impl.(impl[T])}
	return tr.toResult(q, rel, nil)
}

func isExact(s Semiring) bool {
	return s.name == "bool" || s.name == "count" || s.name == "f2"
}

// sameAnswer compares two results: schemas and tuples must be identical;
// values exactly when exact, else within the float semirings'
// re-association tolerance.
func sameAnswer(a, b *Result, exact bool) error {
	if strings.Join(a.Schema, ",") != strings.Join(b.Schema, ",") {
		return fmt.Errorf("schema %v != %v", a.Schema, b.Schema)
	}
	if len(a.Tuples) != len(b.Tuples) {
		return fmt.Errorf("%d rows != %d rows", len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		if len(a.Tuples[i]) != len(b.Tuples[i]) {
			return fmt.Errorf("row %d arity differs", i)
		}
		for j := range a.Tuples[i] {
			if a.Tuples[i][j] != b.Tuples[i][j] {
				return fmt.Errorf("row %d differs: %v vs %v", i, a.Tuples[i], b.Tuples[i])
			}
		}
		av, bv := a.Values[i], b.Values[i]
		if exact {
			if av != bv {
				return fmt.Errorf("value %d: %v != %v (exact)", i, av, bv)
			}
			continue
		}
		diff := math.Abs(av - bv)
		scale := math.Max(math.Max(math.Abs(av), math.Abs(bv)), 1)
		if diff > 1e-9*scale {
			return fmt.Errorf("value %d: %v != %v (tolerance)", i, av, bv)
		}
	}
	return nil
}

// TestEngineMatchesDirectSolve is the acceptance contract driven
// entirely through the public API: for every registered semiring and
// every workload template, Engine.Solve equals per-request planning
// (faq.Solve) — bit-identical for exact semirings, tolerance-equal for
// the float ones.
func TestEngineMatchesDirectSolve(t *testing.T) {
	eng := NewEngine(WithPlanCache(64))
	for _, sem := range Semirings() {
		for _, tpl := range templates {
			q := buildTemplate(t, sem, tpl.spec, tpl.free, nil, 11, 40, 40)
			got, err := eng.Solve(context.Background(), q)
			if err != nil {
				t.Fatalf("%s/%s: %v", sem, tpl.name, err)
			}
			want := referenceSolve(t, q)
			if err := sameAnswer(got, want, isExact(sem)); err != nil {
				t.Errorf("%s/%s: engine vs faq.Solve: %v", sem, tpl.name, err)
			}
		}
	}
}

// TestEngineWorkerSweepBitIdentical pins the acceptance criterion that
// answers are bit-identical to faq.Solve for exact semirings at 1, 2,
// and 8 workers — and identical across worker counts.
func TestEngineWorkerSweepBitIdentical(t *testing.T) {
	exact := []Semiring{Bool, Count, F2}
	baseline := make(map[string]*Result)
	for _, w := range []int{1, 2, 8} {
		prev := SetDefaultWorkers(w)
		t.Cleanup(func() { SetDefaultWorkers(prev) })
		eng := NewEngine(WithPlanCache(64))
		for _, sem := range exact {
			for _, tpl := range templates {
				q := buildTemplate(t, sem, tpl.spec, tpl.free, nil, 23, 48, 48)
				got, err := eng.Solve(context.Background(), q)
				if err != nil {
					t.Fatalf("w=%d %s/%s: %v", w, sem, tpl.name, err)
				}
				want := referenceSolve(t, q)
				if err := sameAnswer(got, want, true); err != nil {
					t.Errorf("w=%d %s/%s: engine vs faq.Solve: %v", w, sem, tpl.name, err)
				}
				key := sem.name + "/" + tpl.name
				if w == 1 {
					baseline[key] = got
				} else if err := sameAnswer(got, baseline[key], true); err != nil {
					t.Errorf("%s: w=%d vs w=1: %v", key, w, err)
				}
			}
		}
		SetDefaultWorkers(prev)
	}
}

// TestRenameInvariance drives the plan cache through the public API:
// random bijective renamings of each template share one fingerprint and
// plan (cache hits from the second request on) while every variant's
// answer still matches its own per-request reference.
func TestRenameInvariance(t *testing.T) {
	eng := NewEngine(WithPlanCache(64))
	r := rand.New(rand.NewSource(99))
	for _, tpl := range templates {
		base := buildTemplate(t, Count, tpl.spec, tpl.free, nil, 31, 32, 32)
		first, err := eng.Solve(context.Background(), base)
		if err != nil {
			t.Fatalf("%s: %v", tpl.name, err)
		}
		if first.CacheHit {
			t.Errorf("%s: first solve hit the cache", tpl.name)
		}
		for trial := 0; trial < 8; trial++ {
			perm := r.Perm(64)
			rename := func(name string) string {
				// A deterministic bijection: each distinct name maps to a
				// fresh pooled name chosen by the permutation.
				return fmt.Sprintf("v%02d_%s", perm[int(hashName(name))%64], name)
			}
			q := buildTemplate(t, Count, tpl.spec, tpl.free, rename, 31, 32, 32)
			res, err := eng.Solve(context.Background(), q)
			if err != nil {
				t.Fatalf("%s trial %d: %v", tpl.name, trial, err)
			}
			if !res.CacheHit {
				t.Errorf("%s trial %d: renamed variant missed the cache", tpl.name, trial)
			}
			if res.PlanHash != first.PlanHash {
				t.Errorf("%s trial %d: fingerprint %s != %s", tpl.name, trial, res.PlanHash, first.PlanHash)
			}
			want := referenceSolve(t, q)
			if err := sameAnswer(res, want, true); err != nil {
				t.Errorf("%s trial %d: %v", tpl.name, trial, err)
			}
		}
	}
	if st := eng.Stats(); st.Cache.Compiles != int64(len(templates)) {
		t.Errorf("compiled %d plans for %d shapes", st.Cache.Compiles, len(templates))
	}
}

func hashName(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// TestCachedEqualsFresh: a warm engine serving many data instances of
// one shape equals a cold engine (and the direct solver) on each — the
// cached≡fresh equivalence across every registered semiring.
func TestCachedEqualsFresh(t *testing.T) {
	warm := NewEngine(WithPlanCache(64))
	for _, sem := range Semirings() {
		for _, tpl := range templates {
			for seed := int64(0); seed < 4; seed++ {
				q := buildTemplate(t, sem, tpl.spec, tpl.free, nil, 100+seed, 24, 24)
				got, err := warm.Solve(context.Background(), q)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", sem, tpl.name, seed, err)
				}
				fresh := NewEngine(WithPlanCache(4))
				cold, err := fresh.Solve(context.Background(), q)
				if err != nil {
					t.Fatalf("%s/%s seed %d cold: %v", sem, tpl.name, seed, err)
				}
				if err := sameAnswer(got, cold, isExact(sem)); err != nil {
					t.Errorf("%s/%s seed %d cached vs fresh: %v", sem, tpl.name, seed, err)
				}
			}
		}
	}
}

// TestExplainWidths pins the acceptance criterion that Explain's widths
// match ghd.Minimize (via faq.PlanGHD) on the workload templates.
func TestExplainWidths(t *testing.T) {
	eng := NewEngine(WithPlanCache(64))
	for _, tpl := range templates {
		q := buildTemplate(t, Count, tpl.spec, tpl.free, nil, 7, 16, 16)
		ex, err := eng.Explain(q)
		if err != nil {
			t.Fatalf("%s: %v", tpl.name, err)
		}
		g, err := faq.PlanGHD(q.h, q.free)
		if err != nil {
			t.Fatalf("%s: PlanGHD: %v", tpl.name, err)
		}
		if ex.Y != g.InternalNodes() {
			t.Errorf("%s: Explain y=%d, Minimize y=%d", tpl.name, ex.Y, g.InternalNodes())
		}
		wantN2 := hypergraph.Decompose(q.h).N2()
		if ex.N2 != wantN2 {
			t.Errorf("%s: Explain n2=%d, Decompose n2=%d", tpl.name, ex.N2, wantN2)
		}
		wantWidth := 0
		for _, l := range g.Labels {
			if len(l) > wantWidth {
				wantWidth = len(l)
			}
		}
		if ex.Width != wantWidth {
			t.Errorf("%s: Explain width=%d, Minimize width=%d", tpl.name, ex.Width, wantWidth)
		}
		if len(ex.Nodes) != g.NumNodes() || ex.Tree == "" {
			t.Errorf("%s: %d explain nodes for %d GHD nodes, tree %q", tpl.name, len(ex.Nodes), g.NumNodes(), ex.Tree)
		}
		if ex.Fingerprint == "" || ex.EstimateBytes <= 0 {
			t.Errorf("%s: fingerprint %q, estimate %v", tpl.name, ex.Fingerprint, ex.EstimateBytes)
		}
	}
}

// TestMemoryBudget pins the acceptance criterion that WithMemoryBudget
// rejects an over-bound query with a typed error before execution.
func TestMemoryBudget(t *testing.T) {
	q := buildTemplate(t, Count, "A,B;B,C;A,C;C,D", "C", nil, 5, 64, 64)

	tight := NewEngine(WithMemoryBudget(4 << 10))
	_, err := tight.Solve(context.Background(), q)
	if !errors.Is(err, ErrOverBudget) {
		t.Fatalf("tight budget: err = %v, want ErrOverBudget", err)
	}
	var be *service.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("tight budget: err %T is not a *service.BudgetError", err)
	}
	if be.BudgetBytes != 4<<10 || be.EstimateBytes <= float64(be.BudgetBytes) || be.N != q.MaxFactorSize() {
		t.Errorf("budget error fields: %+v", be)
	}
	if st := tight.Stats(); findService(st, "count").Rejected != 1 {
		t.Errorf("rejected counter: %+v", findService(st, "count"))
	}

	// The same query passes a generous budget, and the explain estimate
	// is exactly what admission compared against.
	roomy := NewEngine(WithMemoryBudget(1 << 30))
	res, err := roomy.Solve(context.Background(), q)
	if err != nil {
		t.Fatalf("roomy budget: %v", err)
	}
	if err := sameAnswer(res, referenceSolve(t, q), true); err != nil {
		t.Errorf("roomy budget answer: %v", err)
	}
	ex, err := roomy.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.EstimateBytes != be.EstimateBytes {
		t.Errorf("explain estimate %v != rejection estimate %v", ex.EstimateBytes, be.EstimateBytes)
	}
}

func findService(st Stats, name string) ServiceStats {
	for _, s := range st.Services {
		if s.Semiring == name {
			return s
		}
	}
	return ServiceStats{}
}

// TestBruteForceFallbackPolicy: free variables outside every bag take
// the brute-force path, and the memory budget, which prices that path
// at N^|V|, rejects it with a typed error where it admits the coverable
// shape.
func TestBruteForceFallbackPolicy(t *testing.T) {
	// Free {A0, A2} on a path: no bag of the edge GHD covers both.
	q := buildTemplate(t, Count, "A0,A1;A1,A2", "A0", nil, 3, 16, 16)
	qb := NewQuery(Count).Domain(16)
	r := rand.New(rand.NewSource(3))
	for _, names := range parseSpec("A0,A1;A1,A2") {
		rb := NewRelationBuilder(MustSchema(names...))
		for i := 0; i < 16; i++ {
			rb.AddValued(1, r.Intn(16), r.Intn(16))
		}
		rel, err := rb.Relation()
		if err != nil {
			t.Fatal(err)
		}
		qb.Factor(rel)
	}
	qf, err := qb.Free("A0", "A2").Build()
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine()
	res, err := eng.Solve(context.Background(), qf)
	if err != nil {
		t.Fatalf("fallback solve: %v", err)
	}
	if !res.Fallback {
		t.Error("expected Fallback=true on the brute-force path")
	}
	if err := sameAnswer(res, referenceBrute(t, qf), true); err != nil {
		t.Errorf("fallback answer: %v", err)
	}

	// 16^3 rows of 20 bytes for the fallback; the coverable shape's
	// edge bags stay far below the budget.
	strict := NewEngine(WithMemoryBudget(16 << 10))
	if _, err = strict.Solve(context.Background(), qf); !errors.Is(err, ErrOverBudget) {
		t.Errorf("budgeted fallback: err = %v, want ErrOverBudget", err)
	}
	if _, err := strict.Solve(context.Background(), q); err != nil {
		t.Errorf("budgeted coverable shape: %v", err)
	}
}

func referenceBrute(t testing.TB, q *Query) *Result {
	t.Helper()
	tq := q.typed.(*faq.Query[int64])
	rel, err := faq.BruteForce(tq)
	if err != nil {
		t.Fatal(err)
	}
	tr := &typedRunner[int64]{im: q.sem.impl.(impl[int64])}
	return tr.toResult(q, rel, nil)
}

// TestScalarNormalization: scalar answers always carry exactly one row,
// including the empty (semiring-zero) case, so Result.Scalar is total on
// scalar queries.
func TestScalarNormalization(t *testing.T) {
	rel := func(vals ...int) *Relation {
		rb := NewRelationBuilder(MustSchema("A"))
		for _, v := range vals {
			rb.Add(v)
		}
		r, err := rb.Relation()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	eng := NewEngine()
	sat, err := NewQuery(Bool).Factor(rel(1)).Factor(rel(1, 2)).Domain(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Solve(context.Background(), sat)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := res.Scalar(); err != nil || v != 1 {
		t.Errorf("satisfiable BCQ: %v, %v", v, err)
	}
	unsat, err := NewQuery(Bool).Factor(rel(1)).Factor(rel(2, 3)).Domain(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err = eng.Solve(context.Background(), unsat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("empty scalar answer rows = %d, want 1", res.Len())
	}
	if v, err := res.Scalar(); err != nil || v != 0 {
		t.Errorf("unsatisfiable BCQ: %v, %v", v, err)
	}
	// Non-scalar answers refuse Scalar.
	withFree, _ := NewQuery(Bool).Factor(rel(1, 2)).Free("A").Domain(4).Build()
	rf, err := eng.Solve(context.Background(), withFree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf.Scalar(); err == nil {
		t.Error("Scalar on non-scalar answer: want error")
	}
}

// TestSolveWire drives the wire surface: a request equals its
// builder-built twin, aggregates ride the wire, and malformed requests
// error.
func TestSolveWire(t *testing.T) {
	eng := NewEngine(WithPlanCache(16))
	wr := &WireRequest{
		Semiring: "count",
		Edges:    [][]string{{"A", "B"}, {"B", "C"}},
		Factors: []WireFactor{
			{Tuples: [][]int{{0, 1}, {1, 1}, {2, 0}}, Values: []float64{1, 2, 1}},
			{Tuples: [][]int{{1, 0}, {1, 2}, {0, 2}}},
		},
		Free: []string{"A"},
		Dom:  3,
	}
	wa, err := eng.SolveWire(context.Background(), wr)
	if err != nil {
		t.Fatal(err)
	}
	if len(wa.Schema) != 1 || wa.Schema[0] != "A" {
		t.Fatalf("wire schema %v", wa.Schema)
	}
	q, err := BuildWireQuery(wr)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSolve(t, q)
	got := &Result{Schema: wa.Schema, Tuples: wa.Tuples, Values: wa.Values}
	if err := sameAnswer(got, want, true); err != nil {
		t.Errorf("wire answer: %v", err)
	}
	if wa.PlanHash == "" || wa.CacheHit {
		t.Errorf("first wire solve: hash %q hit %v", wa.PlanHash, wa.CacheHit)
	}

	// General FAQ over the wire: a product aggregate changes the answer.
	agg := &WireRequest{
		Semiring:   "sumproduct",
		Edges:      [][]string{{"A", "B"}},
		Factors:    []WireFactor{{Tuples: [][]int{{0, 0}, {0, 1}}, Values: []float64{2, 3}}},
		Free:       []string{"A"},
		Aggregates: map[string]string{"B": "product"},
		Dom:        2,
	}
	waAgg, err := eng.SolveWire(context.Background(), agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(waAgg.Values) != 1 || waAgg.Values[0] != 6 {
		t.Errorf("product aggregate over wire: %v, want [6]", waAgg.Values)
	}

	malformed := []*WireRequest{
		{Semiring: "nope", Edges: [][]string{{"A"}}, Factors: []WireFactor{{}}, Dom: 3},
		{Semiring: "count", Dom: 3},
		{Semiring: "count", Edges: [][]string{{"A"}}, Dom: 3},
		{Semiring: "count", Edges: [][]string{{}}, Factors: []WireFactor{{}}, Dom: 3},
		{Semiring: "count", Edges: [][]string{{"A"}}, Factors: []WireFactor{{Tuples: [][]int{{0, 1}}}}, Dom: 3},
		{Semiring: "count", Edges: [][]string{{"A"}}, Factors: []WireFactor{{Tuples: [][]int{{0}}}}, Dom: 0},
		{Semiring: "count", Edges: [][]string{{"A"}}, Factors: []WireFactor{{Tuples: [][]int{{0}}, Values: []float64{}}}, Dom: 3},
		{Semiring: "count", Edges: [][]string{{"A"}}, Factors: []WireFactor{{Tuples: [][]int{{0}}}}, Free: []string{"Z"}, Dom: 3},
		{Semiring: "count", Edges: [][]string{{"A"}}, Factors: []WireFactor{{Tuples: [][]int{{5}}}}, Dom: 3},
	}
	for i, bad := range malformed {
		if _, err := eng.SolveWire(context.Background(), bad); err == nil {
			t.Errorf("malformed wire case %d: want error", i)
		}
	}
}

// TestEnginePrivatePool: an engine with its own worker pool still meets
// the exact answer contract.
func TestEnginePrivatePool(t *testing.T) {
	eng := NewEngine(WithWorkers(4), WithPlanCache(16))
	for _, tpl := range templates {
		q := buildTemplate(t, Count, tpl.spec, tpl.free, nil, 77, 32, 32)
		res, err := eng.Solve(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", tpl.name, err)
		}
		if err := sameAnswer(res, referenceSolve(t, q), true); err != nil {
			t.Errorf("%s: %v", tpl.name, err)
		}
	}
	if st := eng.Stats(); st.Workers != 4 {
		t.Errorf("Stats().Workers = %d, want 4", st.Workers)
	}
}

// TestEngineCancellation: a canceled context stops a solve.
func TestEngineCancellation(t *testing.T) {
	eng := NewEngine()
	q := buildTemplate(t, Count, templates[0].spec, templates[0].free, nil, 13, 64, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Solve(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: err = %v, want context.Canceled", err)
	}
}
