package cluster

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/delta/churn"
	"repro/internal/faq"
	"repro/internal/ghd"
	"repro/internal/relation"
	"repro/internal/rpc"
	"repro/internal/semiring"
	"repro/internal/shard"
	"repro/internal/workload"
)

const (
	testDom  = 6
	testRows = 40
)

// templateQuery builds a seeded typed query over a standing workload
// template, plus the GHD the engine would plan for it.
func templateQuery[T any](t *testing.T, s semiring.Semiring[T], tplName string, seed int64, gen func(*rand.Rand) T) (*faq.Query[T], *ghd.GHD) {
	t.Helper()
	tpl, ok := workload.TemplateByName(tplName)
	if !ok {
		t.Fatalf("no template %q", tplName)
	}
	shape, err := churn.BuildQuery(s, tpl, testDom, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	factors := make([]*relation.Relation[T], shape.H.NumEdges())
	for e := range factors {
		schema := shape.H.Edge(e)
		b := relation.NewBuilder(s, schema)
		row := make([]int32, len(schema))
		for i := 0; i < testRows; i++ {
			for k := range row {
				row[k] = int32(r.Intn(testDom))
			}
			b.AddRow(row, gen(r))
		}
		factors[e] = b.Build()
	}
	q, err := churn.BuildQuery(s, tpl, testDom, factors)
	if err != nil {
		t.Fatal(err)
	}
	g, err := faq.PlanGHD(q.H, q.Free)
	if err != nil {
		t.Fatal(err)
	}
	return q, g
}

func simClient(t *testing.T, workers int) *Client {
	t.Helper()
	tr, err := NewSimTransport(workers, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tr, Options{})
	t.Cleanup(func() { c.Close() })
	return c
}

// checkTemplate solves one template locally and on a simulated cluster
// of every sweep size, asserting semiring-equal answers (bit-identical
// for the exact semirings).
func checkTemplate[T any](t *testing.T, s semiring.Semiring[T], semName, tplName string, gen func(*rand.Rand) T) {
	t.Helper()
	q, g := templateQuery(t, s, tplName, 42, gen)
	want, _, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		c := simClient(t, w)
		solver, err := NewSolver[T](c, semName)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solver.SolveGHD(context.Background(), q, g)
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		if !relation.Equal(s, got, want) {
			t.Fatalf("W=%d: cluster answer differs from local (%d vs %d rows)", w, got.Len(), want.Len())
		}
		st := c.Stats()
		if st.Solves != 1 || st.Frames == 0 || st.Phases == 0 {
			t.Fatalf("W=%d: counters did not move: %+v", w, st)
		}
		if st.LoadShards != int64(w*q.H.NumEdges()) {
			t.Fatalf("W=%d: %d load shards, want %d", w, st.LoadShards, w*q.H.NumEdges())
		}
	}
}

func TestClusterMatchesLocal(t *testing.T) {
	for _, tpl := range workload.Templates() {
		t.Run(tpl.Name, func(t *testing.T) {
			t.Run("count", func(t *testing.T) {
				checkTemplate(t, semiring.Count{}, "count", tpl.Name,
					func(r *rand.Rand) int64 { return int64(1 + r.Intn(4)) })
			})
			t.Run("bool", func(t *testing.T) {
				checkTemplate(t, semiring.Bool{}, "bool", tpl.Name,
					func(*rand.Rand) bool { return true })
			})
			t.Run("f2", func(t *testing.T) {
				checkTemplate(t, semiring.F2{}, "f2", tpl.Name,
					func(r *rand.Rand) byte { return byte(r.Intn(2)) })
			})
			t.Run("sumproduct", func(t *testing.T) {
				checkTemplate(t, semiring.SumProduct{}, "sumproduct", tpl.Name,
					func(r *rand.Rand) float64 { return 0.25 + r.Float64() })
			})
			t.Run("minplus", func(t *testing.T) {
				checkTemplate(t, semiring.MinPlus{}, "minplus", tpl.Name,
					func(r *rand.Rand) float64 { return r.Float64() })
			})
			t.Run("maxtimes", func(t *testing.T) {
				checkTemplate(t, semiring.MaxTimes{}, "maxtimes", tpl.Name,
					func(r *rand.Rand) float64 { return 0.25 + r.Float64() })
			})
		})
	}
}

// TestClusterAnswerNonTrivial guards the harness against vacuity: the
// seeded workload must produce answers with actual rows.
func TestClusterAnswerNonTrivial(t *testing.T) {
	q, g := templateQuery(t, semiring.Count{}, "path7", 42,
		func(r *rand.Rand) int64 { return int64(1 + r.Intn(4)) })
	want, _, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("seeded path7 workload has an empty answer; the differential tests prove nothing")
	}
}

func TestEmptyFactorMatchesLocal(t *testing.T) {
	sc := semiring.Count{}
	tpl, _ := workload.TemplateByName("star6")
	shape, err := churn.BuildQuery(sc, tpl, testDom, nil) // all factors empty
	if err != nil {
		t.Fatal(err)
	}
	g, err := faq.PlanGHD(shape.H, shape.Free)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := faq.SolveGHD(nil, shape, g, faq.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := simClient(t, 2)
	solver, err := NewSolver[int64](c, "count")
	if err != nil {
		t.Fatal(err)
	}
	got, err := solver.SolveGHD(context.Background(), shape, g)
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(sc, got, want) {
		t.Fatal("empty-factor answers differ")
	}
}

// TestNotDistributable covers the fallback contract: shapes the
// coordinator cannot shard return faq.ErrNotDistributable (wrapped),
// and faq.SolveGHD with the solver plugged into SolveOptions then
// serves the local pass with the right answer.
func TestNotDistributable(t *testing.T) {
	sp := semiring.SumProduct{}
	q, g := templateQuery(t, sp, "path7", 9,
		func(r *rand.Rand) float64 { return 0.25 + r.Float64() })
	// A per-variable aggregate override (max over A1) is not shardable:
	// partial max-of-sum ≠ sum-of-partial-max across workers.
	q.VarOps = map[int]semiring.Op[float64]{1: semiring.AddOf[float64](semiring.MaxTimes{})}
	c := simClient(t, 2)
	solver, err := NewSolver[float64](c, "sumproduct")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.SolveGHD(context.Background(), q, g); !errors.Is(err, faq.ErrNotDistributable) {
		t.Fatalf("VarOps query returned %v, want ErrNotDistributable", err)
	}

	want, _, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{Distributed: solver})
	if err != nil {
		t.Fatalf("SolveOptions fallback: %v", err)
	}
	if !relation.Equal(sp, got, want) {
		t.Fatal("fallback answer differs from local")
	}
	if st := c.Stats(); st.Solves != 0 {
		t.Fatalf("non-distributable query still ran %d cluster solves", st.Solves)
	}
}

// TestSolveOptionsDistributed covers the happy path through the
// faq.SolveGHD hook: a distributable query with a Distributed solver
// runs on the cluster, not locally.
func TestSolveOptionsDistributed(t *testing.T) {
	sc := semiring.Count{}
	q, g := templateQuery(t, sc, "tree6", 13,
		func(r *rand.Rand) int64 { return int64(1 + r.Intn(3)) })
	want, _, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := simClient(t, 4)
	solver, err := NewSolver[int64](c, "count")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{Distributed: solver})
	if err != nil {
		t.Fatal(err)
	}
	if !relation.Equal(sc, got, want) {
		t.Fatal("distributed answer differs from local")
	}
	if st := c.Stats(); st.Solves != 1 {
		t.Fatalf("expected 1 cluster solve, got %d", st.Solves)
	}
}

func TestSolverSemiringMismatch(t *testing.T) {
	c := simClient(t, 1)
	if _, err := NewSolver[int64](c, "bool"); err == nil {
		t.Fatal("count-typed solver accepted the bool profile")
	}
	if _, err := NewSolver[int64](c, "no-such"); err == nil {
		t.Fatal("unknown semiring name accepted")
	}
}

func TestWorkerProtocolErrors(t *testing.T) {
	w := NewWorker()
	ctx := context.Background()
	if resp := w.Handle(ctx, &rpc.Frame{Kind: kindCompute}); resp.Kind != kindErr {
		t.Fatalf("compute before session returned kind %d", resp.Kind)
	}
	if resp := w.Handle(ctx, &rpc.Frame{Kind: 99}); resp.Kind != kindErr {
		t.Fatalf("unknown kind returned kind %d", resp.Kind)
	}
	if resp := w.Handle(ctx, &rpc.Frame{Kind: kindQuery, Body: append(appendEpoch(nil, 1), encodeQuery("no-such", 4)...)}); resp.Kind != kindErr {
		t.Fatalf("unknown semiring returned kind %d", resp.Kind)
	}
	if resp := w.Handle(ctx, &rpc.Frame{Kind: kindPing}); resp.Kind != kindOK {
		t.Fatalf("ping returned kind %d", resp.Kind)
	}
	// A worker error must surface as a typed coordinator error naming
	// the worker, and the session must stay usable after a reset.
	tr, err := NewSimTransport(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tr, Options{})
	defer c.Close()
	if _, err := c.roundTrip(ctx, 0, &rpc.Frame{Kind: kindCompute}); err == nil {
		t.Fatal("worker error did not surface at the coordinator")
	} else if !strings.HasPrefix(err.Error(), "cluster: worker 0") {
		t.Fatalf("coordinator error does not name the worker: %q", err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("fleet unusable after worker error: %v", err)
	}
}

// TestWorkerRefusesStaleEpoch: a session frame from an older solve —
// one left on a connection that solve abandoned — is refused with
// errStaleEpoch and leaves the current session intact, while frames of
// the current epoch keep working.
func TestWorkerRefusesStaleEpoch(t *testing.T) {
	w := NewWorker()
	body := func(epoch uint64, rest []byte) []byte { return append(appendEpoch(nil, epoch), rest...) }
	sc, cod, err := Profile[int64]("count")
	if err != nil {
		t.Fatal(err)
	}
	shardBody := func(epoch uint64) []byte {
		b := relation.NewBuilder(sc, []int{0})
		b.Add([]int{1}, 2)
		return shard.AppendEncode(appendEpoch(nil, epoch), b.Build(), cod)
	}
	mustOK := func(label string, f *rpc.Frame) {
		t.Helper()
		if resp, err := w.handle(f); err != nil || resp.Kind == kindErr {
			t.Fatalf("%s: %v", label, err)
		}
	}
	mustStale := func(label string, f *rpc.Frame) {
		t.Helper()
		if _, err := w.handle(f); !errors.Is(err, errStaleEpoch) {
			t.Fatalf("%s: got %v, want errStaleEpoch", label, err)
		}
	}
	mustOK("reset 5", &rpc.Frame{Kind: kindReset, Body: body(5, nil)})
	mustOK("query 5", &rpc.Frame{Kind: kindQuery, Body: body(5, encodeQuery("count", 4))})
	mustStale("stale reset", &rpc.Frame{Kind: kindReset, Body: body(4, nil)})
	mustStale("stale query", &rpc.Frame{Kind: kindQuery, Body: body(4, encodeQuery("count", 4))})
	mustStale("stale load", &rpc.Frame{Kind: kindLoad, A: 0, Body: shardBody(4)})
	mustStale("stale store", &rpc.Frame{Kind: kindStore, A: 0, Body: shardBody(4)})
	mustStale("stale compute", &rpc.Frame{Kind: kindCompute, A: 0, Body: body(4, encodeVars([]int{0}))})
	// The session survived every stale frame: load and compute at epoch 5.
	mustOK("load 5", &rpc.Frame{Kind: kindLoad, A: 0, Body: shardBody(5)})
	mustOK("compute 5", &rpc.Frame{Kind: kindCompute, A: 0, Body: body(5, encodeVars([]int{0}))})
	// A frame ahead of the session is not stale, but has no session yet.
	if _, err := w.handle(&rpc.Frame{Kind: kindLoad, Body: shardBody(6)}); err == nil || errors.Is(err, errStaleEpoch) {
		t.Fatalf("load ahead of the session: got %v, want a setup error", err)
	}
	// Through Handle the refusal is a kindErr reply.
	if resp := w.Handle(context.Background(), &rpc.Frame{Kind: kindReset, Body: body(1, nil)}); resp.Kind != kindErr {
		t.Fatalf("stale reset through Handle returned kind %d", resp.Kind)
	}
}

func TestSimTransportLedger(t *testing.T) {
	sc := semiring.Count{}
	q, g := templateQuery(t, sc, "star6", 5,
		func(r *rand.Rand) int64 { return int64(1 + r.Intn(3)) })
	tr, err := NewSimTransport(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(tr, Options{})
	defer c.Close()
	solver, err := NewSolver[int64](c, "count")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.SolveGHD(context.Background(), q, g); err != nil {
		t.Fatal(err)
	}
	if rounds, bits := tr.net.Rounds(), tr.net.TotalBits(); rounds == 0 || bits == 0 {
		t.Fatalf("netsim ledger empty after a solve: rounds=%d bits=%d", rounds, bits)
	}
	out, in := tr.Bytes()
	st := c.Stats()
	if st.WireOutBytes != out || st.WireInBytes != in {
		t.Fatalf("stats wire bytes (%d,%d) disagree with transport (%d,%d)",
			st.WireOutBytes, st.WireInBytes, out, in)
	}
	if st.SolvePayloadBytes <= 0 || st.WireOutBytes <= st.SolvePayloadBytes/2 {
		t.Fatalf("implausible byte accounting: %+v", st)
	}
}
