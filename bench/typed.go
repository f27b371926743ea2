package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/faq"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/shard"
	"repro/internal/topology"
)

// internalQuery is a querySpec bound to the internal typed layers, with
// the value type erased. It is the benchmark's second path to the same
// query: the reference answers (per-request planning, independent of the
// plan cache and the serving path) and the layer-by-layer replay of the
// traced run both go through it, so no span has to live inside the
// program.
type internalQuery interface {
	// reference solves with faq.Solve (per-request planning) or, for
	// smoke sizes, faq.BruteForce.
	reference(brute bool) (*reference, error)
	// replay runs the serving path's stages one public call at a time,
	// each under its own span: validate, canonicalize, cache get
	// (compile on a miss), bind, then the GHD pass — on the cluster when
	// dist is non-nil, else locally on pool.
	replay(ctx context.Context, rec *recorder, parent, op int, cache *plan.Cache, pool *exec.Pool, dist *cluster.Client) (replayResult, error)
	// planGHD is per-request planning (faq.PlanGHD).
	planGHD() (*ghd.GHD, error)
	// solveOn runs one timed local pass at the given width (forest pool
	// and kernel partitioning both), returning wall ns and node costs.
	solveOn(g *ghd.GHD, workers int) (int64, []int64, error)
	// kernels times the relation kernels on this query's own factors.
	kernels() (kernelTimes, error)
	// clusterSolve runs the pass on a fleet and returns the answer.
	clusterSolve(ctx context.Context, c *cluster.Client, g *ghd.GHD) (*answer, error)
	payloadBound(g *ghd.GHD, workers int) (int64, error)
	// protocolCost is the paper-model cost: protocol.Run on Star(E+1),
	// one factor per leaf, answer at the hub.
	protocolCost() (rounds int, bits int64, err error)
	// shardTimes splits every factor on its first column across
	// workers, encodes every shard and decodes it again.
	shardTimes(workers int) (split, encode, decode time.Duration, err error)
	// materialize builds a bench-owned incremental view of the query.
	materialize(ctx context.Context, pool *exec.Pool) (internalView, error)
}

// internalView is a bench-owned delta.Materialized twin of an engine
// view: the traced run applies every update to both, timing the public
// call on one and the delta layer's on the other.
type internalView interface {
	update(ctx context.Context, edge int, inserts, deletes []tupleVal) error
	answer() (*answer, error)
	stats() delta.Stats
	close()
}

// tupleVal is one inserted or deleted contribution.
type tupleVal struct {
	Row []int
	Val float64
}

type replayResult struct {
	ans      *answer
	costs    []int64  // per GHD node, local passes only
	g        *ghd.GHD // the bound decomposition the pass ran on
	rootRows float64  // plan.NodeBound of the root at this query's N
}

type kernelTimes struct {
	buildNS, buildRows         int64
	joinMergeNS, joinMergeRows int64
	joinHashNS, joinHashRows   int64
	semijoinNS, semijoinRows   int64
	eliminateNS, eliminateRows int64
	projectNS, projectRows     int64
}

func (k *kernelTimes) add(o kernelTimes) {
	k.buildNS += o.buildNS
	k.buildRows += o.buildRows
	k.joinMergeNS += o.joinMergeNS
	k.joinMergeRows += o.joinMergeRows
	k.joinHashNS += o.joinHashNS
	k.joinHashRows += o.joinHashRows
	k.semijoinNS += o.semijoinNS
	k.semijoinRows += o.semijoinRows
	k.eliminateNS += o.eliminateNS
	k.eliminateRows += o.eliminateRows
	k.projectNS += o.projectNS
	k.projectRows += o.projectRows
}

// typedQuery is the generic implementation behind internalQuery.
type typedQuery[T any] struct {
	s     semiring.Semiring[T]
	name  string
	exact bool
	conv  func(float64) T
	back  func(T) float64
	q     *faq.Query[T]
	perm  [][]int // per factor: spec column k sits at position perm[k] of the sorted schema
}

// newInternal builds the internal typed twin of a spec, mirroring what
// the façade's query builder does for the same input.
func newInternal(spec *querySpec) (internalQuery, error) {
	switch spec.Semiring {
	case "bool":
		return buildTyped[bool](spec, semiring.Bool{}, true,
			func(v float64) bool { return v != 0 },
			func(v bool) float64 {
				if v {
					return 1
				}
				return 0
			})
	case "count":
		return buildTyped[int64](spec, semiring.Count{}, true,
			func(v float64) int64 { return int64(v) },
			func(v int64) float64 { return float64(v) })
	case "sumproduct":
		return buildTyped[float64](spec, semiring.SumProduct{}, false, identity, identity)
	case "minplus":
		return buildTyped[float64](spec, semiring.MinPlus{}, false, identity, identity)
	}
	return nil, fmt.Errorf("bench: no internal twin for semiring %q", spec.Semiring)
}

func identity(v float64) float64 { return v }

func buildTyped[T any](spec *querySpec, s semiring.Semiring[T], exact bool, conv func(float64) T, back func(T) float64) (internalQuery, error) {
	h, cols, free, err := spec.hypergraphOf()
	if err != nil {
		return nil, err
	}
	factors := make([]*relation.Relation[T], len(spec.Factors))
	for e := range spec.Factors {
		f := &spec.Factors[e]
		b := relation.NewBuilderHint(s, cols[e], f.len())
		for i := 0; i < f.len(); i++ {
			v := s.One()
			if f.Values != nil {
				v = conv(f.Values[i])
			}
			b.Add(f.tuple(i), v)
		}
		factors[e] = b.Build()
	}
	q := &faq.Query[T]{S: s, H: h, Factors: factors, Free: free, DomSize: spec.Dom}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	perm := make([][]int, len(cols))
	for e, ids := range cols {
		for _, id := range ids {
			perm[e] = append(perm[e], sort.SearchInts(h.Edge(e), id))
		}
	}
	return &typedQuery[T]{s: s, name: spec.Semiring, exact: exact, conv: conv, back: back, q: q, perm: perm}, nil
}

// toAnswer renders a typed relation the way the façade renders results,
// including the one-row convention for empty scalar answers.
func (t *typedQuery[T]) toAnswer(r *relation.Relation[T]) *answer {
	a := &answer{
		Schema: make([]string, r.Arity()),
		Tuples: make([][]int, r.Len()),
		Values: make([]float64, r.Len()),
	}
	for i, v := range r.Schema() {
		a.Schema[i] = t.q.H.VertexName(v)
	}
	for i := 0; i < r.Len(); i++ {
		row := r.Tuple(i)
		tu := make([]int, len(row))
		for k, x := range row {
			tu[k] = int(x)
		}
		a.Tuples[i] = tu
		a.Values[i] = t.back(r.Value(i))
	}
	if r.Arity() == 0 && r.Len() == 0 {
		a.Tuples = [][]int{{}}
		a.Values = []float64{t.back(t.s.Zero())}
	}
	return a
}

func (t *typedQuery[T]) reference(brute bool) (*reference, error) {
	solve := faq.Solve[T]
	if brute {
		solve = faq.BruteForce[T]
	}
	r, err := solve(t.q)
	if err != nil {
		return nil, err
	}
	return &reference{ans: t.toAnswer(r), exact: t.exact}, nil
}

func (t *typedQuery[T]) planGHD() (*ghd.GHD, error) { return faq.PlanGHD(t.q.H, t.q.Free) }

func (t *typedQuery[T]) replay(ctx context.Context, rec *recorder, parent, op int, cache *plan.Cache, pool *exec.Pool, dist *cluster.Client) (replayResult, error) {
	var res replayResult

	id := rec.begin("faq.validate", op, parent)
	err := t.q.Validate()
	rec.end(id)
	if err != nil {
		return res, err
	}

	id = rec.begin("plan.canonicalize", op, parent)
	fp, err := plan.Canonicalize(t.q.H, t.q.Free, nil)
	rec.end(id)
	if err != nil {
		return res, err
	}

	id = rec.begin("plan.cache_get", op, parent)
	p, hit, err := cache.Get(t.name+"|"+fp.Key, func() (*plan.Plan, error) {
		cid := rec.begin("plan.compile", op, id)
		defer rec.end(cid)
		return plan.Compile(fp)
	})
	rec.end(id)
	if err != nil {
		return res, err
	}
	if !hit {
		rec.rename(id, "plan.cache_get_miss")
	}
	if p.Fallback {
		return res, fmt.Errorf("bench: shape %016x needs the brute-force fallback", p.Hash)
	}

	id = rec.begin("plan.bind", op, parent)
	g, err := p.Bind(fp, t.q.H)
	rec.end(id)
	if err != nil {
		return res, err
	}
	res.g = g
	res.rootRows = p.NodeBounds[p.G.Root].TupleBound(t.q.MaxFactorSize())

	var rel *relation.Relation[T]
	if dist != nil {
		solver, err := cluster.NewSolver[T](dist, t.name)
		if err != nil {
			return res, err
		}
		id = rec.begin("cluster.solve", op, parent)
		rel, err = solver.SolveGHD(withSpan(ctx, rec, id, op), t.q, g)
		rec.end(id)
		if err != nil {
			return res, err
		}
	} else {
		id = rec.begin("faq.solve_ghd", op, parent)
		var m faq.SolveMetrics
		rel, m, err = faq.SolveGHD(ctx, t.q, g, faq.SolveOptions{Pool: pool, Timed: true})
		rec.end(id)
		if err != nil {
			return res, err
		}
		res.costs = m.Costs
	}
	res.ans = t.toAnswer(rel)
	return res, nil
}

func (t *typedQuery[T]) solveOn(g *ghd.GHD, workers int) (int64, []int64, error) {
	prev := exec.SetWorkers(workers)
	defer exec.SetWorkers(prev)
	t0 := time.Now()
	_, m, err := faq.SolveGHD(nil, t.q, g, faq.SolveOptions{Pool: exec.New(workers), Timed: true})
	return time.Since(t0).Nanoseconds(), m.Costs, err
}

// sharing reports how two sorted schemas overlap: shared variables and
// whether they lead both schemas (the merge-join precondition).
func sharing(a, b []int) (shared []int, prefix bool) {
	shared = hypergraph.IntersectSorted(a, b)
	prefix = len(shared) > 0
	for i, v := range shared {
		if a[i] != v || b[i] != v {
			prefix = false
		}
	}
	return shared, prefix
}

func (t *typedQuery[T]) kernels() (kernelTimes, error) {
	var k kernelTimes
	fs := t.q.Factors
	since := func(t0 time.Time) int64 { return time.Since(t0).Nanoseconds() }

	// Builder.Build: re-list the first factor's tuples and rebuild it.
	f0 := fs[0]
	b := relation.NewBuilderHint(t.s, f0.Schema(), f0.Len())
	for i := f0.Len() - 1; i >= 0; i-- {
		b.AddRow(f0.Tuple(i), f0.Value(i))
	}
	t0 := time.Now()
	b.Build()
	k.buildNS, k.buildRows = since(t0), int64(f0.Len())

	// One merge join (shared variables lead both schemas) and one hash
	// join (they do not), on the first factor pairs that qualify, plus a
	// semijoin on the first sharing pair.
	var merged, hashed, semi bool
	for i := 0; i < len(fs) && !(merged && hashed && semi); i++ {
		for j := i + 1; j < len(fs) && !(merged && hashed && semi); j++ {
			shared, prefix := sharing(fs[i].Schema(), fs[j].Schema())
			if len(shared) == 0 {
				continue
			}
			rows := int64(fs[i].Len() + fs[j].Len())
			if !semi {
				t0 = time.Now()
				relation.Semijoin(t.s, fs[i], fs[j])
				k.semijoinNS, k.semijoinRows, semi = since(t0), rows, true
			}
			if prefix && !merged {
				t0 = time.Now()
				relation.Join(t.s, fs[i], fs[j])
				k.joinMergeNS, k.joinMergeRows, merged = since(t0), rows, true
			}
			if !prefix && !hashed {
				t0 = time.Now()
				relation.Join(t.s, fs[i], fs[j])
				k.joinHashNS, k.joinHashRows, hashed = since(t0), rows, true
			}
		}
	}

	// EliminateVar on the first factor's last variable, Project onto its
	// first.
	sch := f0.Schema()
	t0 = time.Now()
	if _, err := relation.EliminateVar(t.s, f0, sch[len(sch)-1], semiring.AddOf(t.s), t.q.DomSize); err != nil {
		return k, err
	}
	k.eliminateNS, k.eliminateRows = since(t0), int64(f0.Len())
	t0 = time.Now()
	if _, err := relation.Project(t.s, f0, sch[:1]); err != nil {
		return k, err
	}
	k.projectNS, k.projectRows = since(t0), int64(f0.Len())
	return k, nil
}

func (t *typedQuery[T]) clusterSolve(ctx context.Context, c *cluster.Client, g *ghd.GHD) (*answer, error) {
	solver, err := cluster.NewSolver[T](c, t.name)
	if err != nil {
		return nil, err
	}
	rel, err := solver.SolveGHD(ctx, t.q, g)
	if err != nil {
		return nil, err
	}
	return t.toAnswer(rel), nil
}

func (t *typedQuery[T]) payloadBound(g *ghd.GHD, workers int) (int64, error) {
	return cluster.PayloadBound(t.q, g, workers)
}

func (t *typedQuery[T]) protocolCost() (int, int64, error) {
	e := t.q.H.NumEdges()
	assign := make(protocol.Assignment, e)
	for i := range assign {
		assign[i] = i + 1
	}
	_, rep, err := protocol.Run(&protocol.Setup[T]{Q: t.q, G: topology.Star(e + 1), Assign: assign, Output: 0})
	return rep.Rounds, rep.Bits, err
}

func (t *typedQuery[T]) shardTimes(workers int) (split, encode, decode time.Duration, err error) {
	_, cod, err := cluster.Profile[T](t.name)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, f := range t.q.Factors {
		t0 := time.Now()
		shards, err := shard.Split(t.s, f, f.Schema()[:1], workers)
		split += time.Since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		for _, sh := range shards {
			t0 = time.Now()
			body := shard.Encode(sh, cod)
			encode += time.Since(t0)
			t0 = time.Now()
			_, err := shard.Decode(t.s, cod, body)
			decode += time.Since(t0)
			if err != nil {
				return 0, 0, 0, err
			}
		}
	}
	return split, encode, decode, nil
}

type typedView[T any] struct {
	t *typedQuery[T]
	m *delta.Materialized[T]
}

func (t *typedQuery[T]) materialize(ctx context.Context, pool *exec.Pool) (internalView, error) {
	g, err := t.planGHD()
	if err != nil {
		return nil, err
	}
	m, err := delta.Materialize(ctx, t.q, g, delta.Options{Pool: pool})
	if err != nil {
		return nil, err
	}
	return &typedView[T]{t: t, m: m}, nil
}

// toDelta converts façade-order tuples (the spec's column order) into
// the schema order the delta layer expects.
func (v *typedView[T]) toDelta(edge int, ups []tupleVal) []delta.Tuple[T] {
	perm := v.t.perm[edge]
	out := make([]delta.Tuple[T], len(ups))
	for i, u := range ups {
		row := make([]int, len(u.Row))
		for k, x := range u.Row {
			row[perm[k]] = x
		}
		out[i] = delta.Tuple[T]{Row: row, Val: v.t.conv(u.Val)}
	}
	return out
}

func (v *typedView[T]) update(ctx context.Context, edge int, inserts, deletes []tupleVal) error {
	return v.m.Update(ctx, delta.Batch[T]{Edge: edge, Inserts: v.toDelta(edge, inserts), Deletes: v.toDelta(edge, deletes)})
}

func (v *typedView[T]) answer() (*answer, error) {
	r, err := v.m.Answer()
	if err != nil {
		return nil, err
	}
	return v.t.toAnswer(r), nil
}

func (v *typedView[T]) stats() delta.Stats { return v.m.Stats() }
func (v *typedView[T]) close()             { v.m.Close() }
