package faq

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/exec"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// Pass is the data-independent plan of one Theorem G.3 bottom-up pass
// over a bound GHD: where each factor joins in, which messages each node
// joins and in what order, and which variables each node's message keeps.
// Every walker of the pass — the local forest pass (SolveGHD), the
// retaining pass of delta.Materialize, the cluster's scatter/gather stars
// and the protocol runner — reads these from one Pass, so none of them
// re-derives child order, keep sets or factor placement.
type Pass struct {
	Root   int
	Parent []int   // node → parent, -1 at the root
	NodeOf []int   // edge → its designated node
	Edges  [][]int // node → designated factor edges, ascending; empty when factorless
	// Children lists each node's children in g.Children() order, the
	// order every walker joins their messages in.
	Children [][]int
	Order    []int // postorder: children before parents
	// Keep is χ(v) ∩ (F ∪ χ(parent(v))), sorted: the variables surviving
	// v's aggregation (Corollary G.2). At the root it is exactly F.
	Keep [][]int
}

// NewPass plans the pass of g for the free variables F. It is the one
// place the paper's free-variable restriction F ⊆ χ(root) (Appendix G.5)
// is checked; a violation returns a wrapped ErrFreeOutsideRoot.
func NewPass(g *ghd.GHD, free []int) (*Pass, error) {
	rootBag := g.Bags[g.Root]
	for _, x := range free {
		if !hypergraph.ContainsSorted(rootBag, x) {
			return nil, fmt.Errorf("faq: free variable %d outside root bag %v: %w", x, rootBag, ErrFreeOutsideRoot)
		}
	}
	n := g.NumNodes()
	p := &Pass{
		Root:     g.Root,
		Parent:   g.Parent,
		NodeOf:   g.NodeOf,
		Edges:    make([][]int, n),
		Children: g.Children(),
		Order:    g.PostOrder(),
		Keep:     make([][]int, n),
	}
	for e, v := range g.NodeOf {
		p.Edges[v] = append(p.Edges[v], e)
	}
	for v, bag := range g.Bags {
		var parentBag []int
		if v != g.Root {
			parentBag = g.Bags[g.Parent[v]]
		}
		for _, x := range bag {
			if slices.Contains(free, x) || hypergraph.ContainsSorted(parentBag, x) {
				p.Keep[v] = append(p.Keep[v], x)
			}
		}
	}
	return p, nil
}

// NodeFactor returns node v's factor: the join of its designated
// factors (taken from factors, indexed by edge) in ascending edge order,
// or nil for a factorless node such as the fat core root.
func NodeFactor[T any](q *Query[T], p *Pass, v int, factors []*relation.Relation[T]) *relation.Relation[T] {
	var cur *relation.Relation[T]
	for _, e := range p.Edges[v] {
		if cur == nil {
			cur = factors[e]
		} else {
			cur = relation.Join(q.S, cur, factors[e])
		}
	}
	return cur
}

// EvalNode is the node evaluator of the pass. Its meaning is the chain:
// start from factor (the multiplicative unit when nil), join the
// children's relations in order, then aggregate out, innermost first,
// every variable outside keep (sorted). It runs that chain as one walk
// over the factor (relation.EvalFused): each row is multiplied by every
// child's value at its key, read from a dense array, and folded into
// its keep group, with no intermediate relation and no sort. A node
// takes the chain itself when it has no factor, nothing to join or
// fold, aggregates a variable with ⊗, has a child variable outside the
// factor, a cell outside [0, DomSize), dense arrays over
// relation.FuseSpan·(rows in), or more than one eliminated variable
// ahead of the last kept one.
func EvalNode[T any](q *Query[T], factor *relation.Relation[T], children []*relation.Relation[T], keep []int) (*relation.Relation[T], error) {
	if out, ok, err := relation.EvalFused(q.S, factor, children, keep, q.Op, q.DomSize); ok {
		return out, err
	}
	cur := factor
	if cur == nil {
		cur = relation.Unit(q.S, q.S.One())
	}
	for _, c := range children {
		cur = relation.Join(q.S, cur, c)
	}
	return AggregateOut(q, cur, func(x int) bool { return hypergraph.ContainsSorted(keep, x) })
}

// EvalAt runs EvalNode at node v of p, reading the children's relations
// from msgs (indexed by node).
func EvalAt[T any](q *Query[T], p *Pass, v int, factor *relation.Relation[T], msgs []*relation.Relation[T]) (*relation.Relation[T], error) {
	in := make([]*relation.Relation[T], len(p.Children[v]))
	for i, c := range p.Children[v] {
		in[i] = msgs[c]
	}
	return EvalNode(q, factor, in, p.Keep[v])
}

// Messages runs the whole pass over q.Factors and returns every node's
// message, indexed by node; the answer is the root's. Sibling subtrees
// run concurrently on opts.Pool (exec.Pool.Forest orders each node after
// its children), and each node's work is the sequential EvalAt, so the
// messages are bit-identical at any worker count. opts.Distributed is
// ignored here.
func Messages[T any](ctx context.Context, q *Query[T], p *Pass, opts SolveOptions) ([]*relation.Relation[T], SolveMetrics, error) {
	var metrics SolveMetrics
	msgs := make([]*relation.Relation[T], len(p.Parent))
	task := func(v int) error {
		m, err := EvalAt(q, p, v, NodeFactor(q, p, v, q.Factors), msgs)
		msgs[v] = m
		return err
	}
	pool := opts.Pool
	if pool == nil {
		pool = exec.Default()
	}
	var err error
	if opts.Timed {
		// The same per-task ctx gate ForestCtx applies, so the timed pass
		// stays cancellable too.
		metrics.Costs, err = pool.ForestTimed(p.Parent, func(v int) error {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			return task(v)
		})
	} else {
		err = pool.ForestCtx(ctx, p.Parent, task)
	}
	if err != nil {
		return nil, SolveMetrics{}, err
	}
	return msgs, metrics, nil
}
