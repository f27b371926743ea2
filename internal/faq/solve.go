package faq

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// ErrFreeOutsideRoot is the sentinel for the paper's free-variable
// restriction (F ⊆ V(C(H)), Appendix G.5): no bag of the decomposition
// covers all free variables, so the GHD pass cannot deliver the
// marginal at a root. It is the ONLY condition under which callers
// should fall back to the exponential BruteForce; every other solver
// error is a real failure and must propagate.
var ErrFreeOutsideRoot = errors.New("faq: free variables not contained in any bag (paper requires F ⊆ V(C(H)))")

// AggregateOut eliminates, innermost (largest id) first, every schema
// variable of r for which keep reports false, applying each variable's
// per-query aggregate operator (eq. 4). It is the push-down step of
// Corollary G.2 behind BruteForce and the pass's node evaluator EvalNode.
func AggregateOut[T any](q *Query[T], r *relation.Relation[T], keep func(v int) bool) (*relation.Relation[T], error) {
	schema := r.Schema()
	var err error
	for i := len(schema) - 1; i >= 0; i-- {
		x := schema[i]
		if keep(x) {
			continue
		}
		r, err = relation.EliminateVar(q.S, r, x, q.Op(x), q.DomSize)
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// BruteForce evaluates the query by materializing the full join of all
// factors and then aggregating the bound variables innermost-first
// (x_n, x_{n-1}, ..., x_{ℓ+1} per eq. 4). It is exponential in general
// and exists as the correctness oracle for the other solvers.
func BruteForce[T any](q *Query[T]) (*relation.Relation[T], error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	joined := relation.Unit(q.S, q.S.One())
	for _, f := range q.Factors {
		joined = relation.Join(q.S, joined, f)
	}
	free := make(map[int]bool, len(q.Free))
	for _, v := range q.Free {
		free[v] = true
	}
	return AggregateOut(q, joined, func(v int) bool { return free[v] })
}

// Solve evaluates the query with the GHD message-passing algorithm of
// Theorem G.3: a single bottom-up pass over a (minimized) GYO-GHD, where
// each node joins its factor with the children's messages and aggregates
// out the variables private to its subtree (the push-down of
// Corollary G.2). Each message has at most N tuples (eq. 24), so the
// pass runs in Õ(N) per node for acyclic queries; the cyclic core is
// materialized at the fat root exactly as the paper's trivial protocol
// materializes it at one player.
//
// The paper's free-variable restriction applies: F must be contained in
// the root bag (F ⊆ V(C(H)), Appendix G.5). Queries violating it are
// rejected — fall back to BruteForce.
func Solve[T any](q *Query[T]) (*relation.Relation[T], error) {
	g, err := PlanGHD(q.H, q.Free)
	if err != nil {
		return nil, err
	}
	ans, _, err := SolveGHD(nil, q, g, SolveOptions{})
	return ans, err
}

// PlanGHD is the query-planning primitive shared by the centralized
// solver, the distributed protocol, and the plan cache: a width-minimized
// GYO-GHD of h re-rooted so its root bag covers the free variables. It is
// the expensive, data-independent half of every solve — exactly what
// internal/plan compiles once per query shape and reuses across requests.
func PlanGHD(h *hypergraph.Hypergraph, free []int) (*ghd.GHD, error) {
	g, err := ghd.Minimize(h)
	if err != nil {
		return nil, err
	}
	return RootForFree(g, free)
}

// RootForFree re-roots g at a node whose bag contains every free
// variable, so the bottom-up pass delivers the marginal at the root.
// Ties prefer the current root, then the smallest internal-node count.
// If no bag covers F the paper's free-variable restriction
// (F ⊆ V(C(H)), Appendix G.5) is violated and an error is returned.
func RootForFree(g *ghd.GHD, free []int) (*ghd.GHD, error) {
	covers := func(v int) bool {
		for _, x := range free {
			if !hypergraph.ContainsSorted(g.Bags[v], x) {
				return false
			}
		}
		return true
	}
	if covers(g.Root) {
		return g, nil
	}
	// y(ReRoot(v)) without materializing the re-root: re-rooting only
	// redirects edges, so a node is internal iff its (undirected) degree
	// is ≥ 2, plus the new root itself when it was a leaf. One degree
	// pass replaces NumNodes() tree copies.
	n := g.NumNodes()
	deg := make([]int, n)
	for v, p := range g.Parent {
		if p >= 0 {
			deg[v]++
			deg[p]++
		}
	}
	base := 0
	for _, d := range deg {
		if d >= 2 {
			base++
		}
	}
	best := -1
	bestY := 0
	for v := 0; v < n; v++ {
		if !covers(v) {
			continue
		}
		y := base
		if deg[v] == 1 {
			y++ // a leaf promoted to root becomes internal
		}
		if best == -1 || y < bestY {
			best, bestY = v, y
		}
	}
	if best == -1 {
		return nil, fmt.Errorf("faq: no GHD bag covers free variables %v: %w", free, ErrFreeOutsideRoot)
	}
	return g.ReRoot(best), nil
}

// SolveOptions configures one GHD bottom-up pass. The zero value is the
// plain parallel solve on the process-default pool.
type SolveOptions struct {
	// Pool schedules the forest pass; nil uses exec.Default(). Engines
	// configured with a private worker budget (faqs.WithWorkers) thread
	// their own pool here — worker counts never change results, only
	// scheduling.
	Pool *exec.Pool
	// Timed collects the wall-clock cost of every node task (indexed by
	// GHD node), the vector exec.Makespan replays and the plan cache
	// keeps as its measured costs.
	Timed bool
	// Distributed, when non-nil, must be a DistributedSolver[T] for the
	// query's value type; SolveGHD then delegates the validated pass to
	// it (cluster-backed execution). A solver rejecting the query shape
	// with ErrNotDistributable falls back to the local pass, so engines
	// can always set the option and let eligibility decide per query.
	// The field is `any` because SolveOptions is shared across value
	// types; a type mismatch silently runs locally.
	Distributed any
}

// DistributedSolver executes one validated GHD bottom-up pass on
// external workers, returning the root message. Implementations must
// keep the bit-identical contract of the local pass for exact
// semirings: same child join order, same innermost-first aggregation,
// duplicate groups merged with ⊕.
type DistributedSolver[T any] interface {
	SolveGHD(ctx context.Context, q *Query[T], g *ghd.GHD) (*relation.Relation[T], error)
}

// ErrNotDistributable is returned (wrapped) by a DistributedSolver that
// cannot run the query's shape remotely, such as one with per-variable
// aggregate operators. SolveGHD treats it as
// "run locally", every other solver error as a real failure.
var ErrNotDistributable = errors.New("faq: query not distributable")

// SolveMetrics carries the optional measurements of a SolveGHD run:
// Costs when SolveOptions.Timed was set.
type SolveMetrics struct {
	Costs []int64
}

// SolveGHD is the single bottom-up-pass entry point: Solve with a
// caller-chosen decomposition (the plan cache's bound plan, or the tree a
// distributed protocol schedules communication for). ctx may be nil
// (background); opts selects the pool, the measurement mode and an
// optional cluster backend. The pass itself is Messages over the Pass of
// g, so the answer is bit-identical at any worker count.
func SolveGHD[T any](ctx context.Context, q *Query[T], g *ghd.GHD, opts SolveOptions) (*relation.Relation[T], SolveMetrics, error) {
	if err := q.Validate(); err != nil {
		return nil, SolveMetrics{}, err
	}
	p, err := NewPass(g, q.Free)
	if err != nil {
		return nil, SolveMetrics{}, err
	}
	if opts.Distributed != nil {
		if ds, ok := opts.Distributed.(DistributedSolver[T]); ok {
			ans, err := ds.SolveGHD(ctx, q, g)
			if err == nil {
				// No per-node cost vector: the work ran on the cluster.
				return ans, SolveMetrics{}, nil
			}
			if !errors.Is(err, ErrNotDistributable) {
				return nil, SolveMetrics{}, err
			}
			// Shape not distributable: run the local pass below.
		}
	}
	msgs, metrics, err := Messages(ctx, q, p, opts)
	if err != nil {
		return nil, SolveMetrics{}, err
	}
	return msgs[p.Root], metrics, nil
}
