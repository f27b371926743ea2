// Package delta implements incremental maintenance of FAQ answers over
// a bound GHD plan: a Materialized handle retains every node's message
// relation from one bottom-up pass and re-answers insert/delete tuple
// batches against base relations by propagating semiring deltas up only
// the affected root path — O(affected path) instead of O(full pass)
// (ROADMAP open item 3).
//
// # Delta rules per semiring
//
// The pass is ⊕-linear for FAQ-SS queries: Join distributes over ⊕ in
// each argument and EliminateVar with the semiring ⊕ is a group sum, so
// a factor change Δ propagates as
//
//	Δmsg(v) = Agg_v(Join(Δ, <unchanged siblings>))
//	msg'(v) = msg(v) ⊕ Δmsg(v)   (relation.MergeAdd)
//
// provided deletions can be expressed as ⊕-inverses (below). Point
// deltas probe the retained relations through per-site sorted indexes
// (relation.SortedIndex) instead of re-sorting the retained side per
// hop. Committing a retained relation splices Δ into it (one gallop per
// Δ row plus one copy, sharing the row buffer when only annotations
// move) and carries every index that probes that relation across the
// commit (relation.RebaseIndex) instead of rebuilding it. A steady-state
// update thus costs O(path · (|Δ| log n + fanout)) probe work plus, per
// committed relation, one copy of it and one pass over each of its
// indexes; it never re-sorts. bench/'s view_churn workload measures it.
//
// The ⊕-inverses per semiring:
//
//	Count       delete (t,v) ⇒ ⊕ (t,-v)   (ℤ is a ring)
//	SumProduct  delete (t,v) ⇒ ⊕ (t,-v)   (ℝ is a ring; float ⊕ is
//	            re-associated, so answers are tolerance-equal, and a
//	            cancellation that is exact in ℝ may leave a residue row)
//	F2          delete (t,v) ⇒ ⊕ (t,v)    (XOR is self-inverse)
//	Bool        support-counted: the handle maintains a Count twin of
//	            the query (true ⇒ 1 derivation) and answers count > 0.
//	            Deleting below support 0 is ErrNegativeSupport; support
//	            beyond 2^63-1 derivations per answer tuple overflows.
//
// MinPlus and MaxTimes have idempotent ⊕ (min/max destroy information,
// no inverse exists), and general FAQs (per-variable aggregate
// overrides) are not ⊕-linear; both fall back to a documented per-node
// recompute: the handle keeps a per-edge contribution ledger (a
// multiset, so deleting one of two equal contributions keeps the
// other), rebuilds the touched factor, and re-runs the full node task
// for just the nodes on the edge's root path — still O(path), but
// O(node) work per node instead of O(|Δ|). These updates are counted
// separately (Stats.Recomputes, surfaced as delta_fallbacks by the
// service layer).
//
// Updates are atomic: state is staged and committed only after every
// batch applied, so an error (including an injected fault at the
// delta.apply failpoint) leaves the handle unchanged and reusable.
// Handles serialize Update/Answer with a mutex; the relation kernels
// underneath still partition across the process worker pool, and per
// the exec contract worker counts never change answers.
package delta

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/exec"
	"repro/internal/faq"
	"repro/internal/fault"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// applySite is the chaos-injection point of every Update, hit after
// validation and before any state is staged — an injected fault must
// leave the handle unchanged.
var applySite = fault.Register("delta.apply")

// Typed errors of the maintenance path.
var (
	// ErrClosed reports an Update or Answer on a closed handle.
	ErrClosed = errors.New("delta: materialized handle is closed")
	// ErrNegativeSupport reports a Bool delete exceeding the tuple's
	// inserted support (the support count would go negative).
	ErrNegativeSupport = errors.New("delta: delete exceeds the tuple's inserted support")
	// ErrNoSuchTuple reports a recompute-ledger delete whose (tuple,
	// value) contribution is not listed.
	ErrNoSuchTuple = errors.New("delta: delete of an unlisted contribution")
)

// Strategy identifies how a handle maintains its state.
type Strategy string

const (
	// StrategyRing propagates exact ⊕-deltas (Count, SumProduct, F2).
	StrategyRing Strategy = "ring"
	// StrategySupport lifts Bool to a support-counting Count twin.
	StrategySupport Strategy = "support"
	// StrategyRecompute re-runs the node task along the affected path
	// (MinPlus, MaxTimes, general FAQs — idempotent or non-linear ⊕).
	StrategyRecompute Strategy = "recompute"
)

// Tuple is one tuple update: Row in the factor's schema column order
// (the order relation.Relation.Tuple uses), Val its annotation.
type Tuple[T any] struct {
	Row []int
	Val T
}

// Batch groups the inserts and deletes of one Update against one base
// relation (hyperedge index of the query's hypergraph).
type Batch[T any] struct {
	Edge    int
	Inserts []Tuple[T]
	Deletes []Tuple[T]
}

// Options configures Materialize.
type Options struct {
	// Pool schedules the initial bottom-up pass; nil uses exec.Default().
	Pool *exec.Pool
}

// Stats counts a handle's maintenance activity.
type Stats struct {
	// Updates is the number of successfully applied Update calls.
	Updates int64
	// Recomputes counts the Updates served by the per-node recompute
	// fallback instead of delta propagation.
	Recomputes int64
}

// Materialized is an incrementally maintained FAQ answer: the query's
// base relations, every GHD node's message relation, and the machinery
// to fold tuple deltas into them. Construct with Materialize; safe for
// concurrent use.
type Materialized[T any] struct {
	mu     sync.Mutex
	closed bool

	s    semiring.Semiring[T]
	q    *faq.Query[T] // owned clone; Factors tracks applied updates
	p    *faq.Pass
	msgs []*relation.Relation[T] // per node: its bottom-up message

	strategy    Strategy
	neg         func(T) T            // ⊕-inverse (ring strategies)
	nonNegative bool                 // reject negative annotations (Bool support twin)
	ledgers     []*ledger[T]         // per-edge contribution multisets (recompute)
	lift        *Materialized[int64] // the Count twin (support strategy)
	boolAnswer  *relation.Relation[T]

	// fix and mix are the join build sides point deltas probe, one slot
	// of each per non-root node c: fix[c] orders parent(c)'s factor on
	// the variables a delta arriving from c shares with it, and mix[c]
	// orders msgs[c] for the deltas that join it at parent(c). A slot is
	// built on its first probe and then rebased whenever the relation it
	// orders is committed, so it never goes stale and no update re-sorts
	// retained state. Memory is O(n) per indexed slot, the price of a
	// standing view.
	fix, mix []*relation.SortedIndex

	updates    int64
	recomputes int64
}

// strategyOf selects the maintenance strategy: ⊕-deltas need an
// FAQ-SS query (per-variable aggregate overrides are not ⊕-linear)
// over a semiring with an additive inverse.
func strategyOf[T any](q *faq.Query[T]) Strategy {
	if !q.IsSS() {
		return StrategyRecompute
	}
	switch any(q.S).(type) {
	case semiring.Count, semiring.SumProduct, semiring.F2:
		return StrategyRing
	case semiring.Bool:
		return StrategySupport
	}
	return StrategyRecompute
}

// negOf returns the semiring's ⊕-inverse for ring strategies.
func negOf[T any](s semiring.Semiring[T]) func(T) T {
	switch any(s).(type) {
	case semiring.Count:
		f := func(v int64) int64 { return -v }
		return any(f).(func(T) T)
	case semiring.SumProduct:
		f := func(v float64) float64 { return -v }
		return any(f).(func(T) T)
	case semiring.F2:
		return func(v T) T { return v } // XOR is self-inverse
	}
	return nil
}

// Materialize runs faq.Messages — the pass faq.SolveGHD runs — over the
// bound decomposition g and keeps every node's message, so the retained
// state is bit-identical to a from-scratch pass for exact semirings. It
// returns the maintenance handle. The paper's free-variable restriction
// applies exactly as in SolveGHD: F ⊆ the root bag, else
// ErrFreeOutsideRoot. The handle clones the factor list; the caller's
// query is not retained.
func Materialize[T any](ctx context.Context, q *faq.Query[T], g *ghd.GHD, opts Options) (*Materialized[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p, err := faq.NewPass(g, q.Free)
	if err != nil {
		return nil, err
	}
	qc := *q
	qc.Factors = append([]*relation.Relation[T](nil), q.Factors...)
	m := &Materialized[T]{
		s:        q.S,
		q:        &qc,
		p:        p,
		strategy: strategyOf(q),
	}
	switch m.strategy {
	case StrategySupport:
		lifted := liftBoolQuery(&qc)
		lift, err := Materialize(ctx, lifted, g, opts)
		if err != nil {
			return nil, err
		}
		lift.nonNegative = true
		m.lift = lift
		return m, nil
	case StrategyRing:
		m.neg = negOf(q.S)
		m.fix = make([]*relation.SortedIndex, len(p.Parent))
		m.mix = make([]*relation.SortedIndex, len(p.Parent))
	case StrategyRecompute:
		m.ledgers = make([]*ledger[T], len(qc.Factors))
		for e, f := range qc.Factors {
			m.ledgers[e] = ledgerOf(f)
		}
	}
	m.msgs, _, err = faq.Messages(ctx, &qc, p, faq.SolveOptions{Pool: opts.Pool})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// liftBoolQuery builds the Count twin of a Bool query: same hypergraph,
// free variables, and domain; every listed (true) tuple becomes one
// derivation (count 1).
func liftBoolQuery[T any](q *faq.Query[T]) *faq.Query[int64] {
	cs := semiring.Count{}
	factors := make([]*relation.Relation[int64], len(q.Factors))
	for e, f := range q.Factors {
		b := relation.NewBuilderHint(cs, f.Schema(), f.Len())
		for i := 0; i < f.Len(); i++ {
			b.AddRow(f.Tuple(i), 1)
		}
		factors[e] = b.Build()
	}
	return &faq.Query[int64]{S: cs, H: q.H, Factors: factors, Free: q.Free, DomSize: q.DomSize}
}

// Strategy reports how the handle maintains its state.
func (m *Materialized[T]) Strategy() Strategy {
	if m.strategy == StrategySupport {
		return StrategySupport
	}
	return m.strategy
}

// Stats returns the handle's maintenance counters.
func (m *Materialized[T]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Updates: m.updates, Recomputes: m.recomputes}
}

// Answer returns the maintained answer relation — the root message,
// exactly what faq.SolveGHD would return for the current base
// relations. The relation is immutable; callers may retain it across
// updates.
func (m *Materialized[T]) Answer() (*relation.Relation[T], error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.strategy == StrategySupport {
		if m.boolAnswer == nil {
			ans, err := m.lift.Answer()
			if err != nil {
				return nil, err
			}
			m.boolAnswer = oneOf(m.s, ans)
		}
		return m.boolAnswer, nil
	}
	return m.msgs[m.p.Root], nil
}

// Factor returns the handle's current view of base relation e (the
// factors the maintained answer corresponds to).
func (m *Materialized[T]) Factor(e int) (*relation.Relation[T], error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if e < 0 || e >= len(m.q.Factors) {
		return nil, fmt.Errorf("delta: factor %d out of range [0,%d)", e, len(m.q.Factors))
	}
	if m.strategy == StrategySupport {
		f, err := m.lift.Factor(e)
		if err != nil {
			return nil, err
		}
		return oneOf(m.s, f), nil
	}
	return m.q.Factors[e], nil
}

// oneOf maps every listed tuple of c onto the semiring's 1 — the
// Bool view of a non-negative support count (count > 0 ⇔ true).
func oneOf[T any, U any](s semiring.Semiring[T], c *relation.Relation[U]) *relation.Relation[T] {
	b := relation.NewBuilderHint(s, c.Schema(), c.Len())
	one := s.One()
	for i := 0; i < c.Len(); i++ {
		b.AddRow(c.Tuple(i), one)
	}
	return b.Build()
}

// Close releases the handle's retained state. Further Update/Answer
// calls return ErrClosed. Idempotent.
func (m *Materialized[T]) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.msgs, m.ledgers, m.boolAnswer, m.fix, m.mix = nil, nil, nil, nil, nil
	if m.lift != nil {
		m.lift.Close()
	}
}

// Update applies insert/delete batches and re-answers by propagating
// deltas up the affected root paths (or recomputing the path's node
// tasks, per the strategy). The whole call is atomic: on any error —
// validation, context cancellation, an injected delta.apply fault, a
// support underflow — the handle is unchanged and remains usable.
func (m *Materialized[T]) Update(ctx context.Context, batches ...Batch[T]) error {
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.strategy == StrategySupport {
		lb, err := liftBatches(batches)
		if err != nil {
			return err
		}
		if err := m.lift.Update(ctx, lb...); err != nil {
			return err
		}
		m.boolAnswer = nil
		m.updates++
		metricUpdates.Inc()
		return nil
	}
	if err := m.validateBatches(batches); err != nil {
		return err
	}
	if err := applySite.Hit(ctx); err != nil {
		return err
	}
	var err error
	if m.strategy == StrategyRecompute {
		err = m.applyRecompute(ctx, batches)
	} else {
		err = m.applyRing(ctx, batches)
	}
	if err != nil {
		return err
	}
	m.updates++
	metricUpdates.Inc()
	if m.strategy == StrategyRecompute {
		m.recomputes++
		metricRecomputes.Inc()
	}
	return nil
}

// liftBatches converts Bool batches onto the Count twin: a true tuple
// is one derivation; false (zero-annotated) tuples are no-ops.
func liftBatches[T any](batches []Batch[T]) ([]Batch[int64], error) {
	out := make([]Batch[int64], len(batches))
	for i, b := range batches {
		lb := Batch[int64]{Edge: b.Edge}
		for _, t := range b.Inserts {
			if tv, ok := any(t.Val).(bool); !ok {
				return nil, fmt.Errorf("delta: support strategy on non-bool value %v", t.Val)
			} else if tv {
				lb.Inserts = append(lb.Inserts, Tuple[int64]{Row: t.Row, Val: 1})
			}
		}
		for _, t := range b.Deletes {
			if tv, ok := any(t.Val).(bool); !ok {
				return nil, fmt.Errorf("delta: support strategy on non-bool value %v", t.Val)
			} else if tv {
				lb.Deletes = append(lb.Deletes, Tuple[int64]{Row: t.Row, Val: 1})
			}
		}
		out[i] = lb
	}
	return out, nil
}

// validateBatches rejects malformed updates before any state changes:
// edge indices in range, rows of the factor's arity, values within the
// domain.
func (m *Materialized[T]) validateBatches(batches []Batch[T]) error {
	for bi, b := range batches {
		if b.Edge < 0 || b.Edge >= m.q.H.NumEdges() {
			return fmt.Errorf("delta: batch %d edge %d out of range [0,%d)", bi, b.Edge, m.q.H.NumEdges())
		}
		arity := len(m.q.H.Edge(b.Edge))
		check := func(kind string, ts []Tuple[T]) error {
			for ti, t := range ts {
				if len(t.Row) != arity {
					return fmt.Errorf("delta: batch %d %s %d arity %d != edge arity %d", bi, kind, ti, len(t.Row), arity)
				}
				for _, x := range t.Row {
					if x < 0 || x >= m.q.DomSize {
						return fmt.Errorf("delta: batch %d %s %d value %d outside domain [0,%d)", bi, kind, ti, x, m.q.DomSize)
					}
				}
			}
			return nil
		}
		if err := check("insert", b.Inserts); err != nil {
			return err
		}
		if err := check("delete", b.Deletes); err != nil {
			return err
		}
	}
	return nil
}

// deltaFactor folds one batch into a single delta relation over the
// edge schema: inserts with their values, deletes with the ⊕-inverse.
// The builder ⊕-merges duplicates and drops exact zeros, so an
// insert/delete pair of the same tuple cancels before any propagation.
func (m *Materialized[T]) deltaFactor(b Batch[T]) *relation.Relation[T] {
	schema := m.q.H.Edge(b.Edge)
	bld := relation.NewBuilderHint(m.s, schema, len(b.Inserts)+len(b.Deletes))
	for _, t := range b.Inserts {
		bld.Add(t.Row, t.Val)
	}
	for _, t := range b.Deletes {
		bld.Add(t.Row, m.neg(t.Val))
	}
	return bld.Build()
}

// applyRing stages and commits one ring-strategy update: per batch,
// fold the delta into the base factor with MergeAdd, then walk the
// edge's node path to the root propagating Δmsg — joining the delta
// first (it is small, so every intermediate stays small), then the
// node's factor and the unchanged sibling messages, aggregating to the
// node's keep set (faq.EvalNode), and ⊕-merging into the retained
// message. Every commit rebases the index slots that probe the committed
// relation. Propagation stops early when a Δmsg cancels to empty.
func (m *Materialized[T]) applyRing(ctx context.Context, batches []Batch[T]) error {
	factors, msgs := slices.Clone(m.q.Factors), slices.Clone(m.msgs)
	fix, mix := slices.Clone(m.fix), slices.Clone(m.mix)
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return err
		}
		d := m.deltaFactor(b)
		if d.Len() == 0 {
			continue
		}
		nf, err := relation.MergeAdd(m.s, factors[b.Edge], d)
		if err != nil {
			return err
		}
		if m.nonNegative {
			for i := 0; i < d.Len(); i++ {
				if v, ok := relation.LookupRow(nf, d.Tuple(i)); ok && isNegative(m.s, v) {
					return fmt.Errorf("delta: tuple %v on edge %d: %w", d.Tuple(i), b.Edge, ErrNegativeSupport)
				}
			}
		}
		u := m.p.NodeOf[b.Edge]
		if m.indexesFactor(u) {
			for _, c := range m.p.Children[u] {
				fix[c] = rebase(fix[c], factors[b.Edge], d, nf)
			}
		}
		factors[b.Edge] = nf
		// Node-local delta: join the factor delta with the node's other
		// designated factors (unchanged in this batch, so the product's
		// delta is Join(Δ, siblings) by distributivity).
		dn := d
		for _, e := range m.p.Edges[u] {
			if e != b.Edge {
				dn = relation.Join(m.s, dn, factors[e])
			}
		}
		// Walk the root path. from == -1 means the delta replaces the
		// node's own factor slot; otherwise it replaces child `from`'s
		// message and the node's factor joins in.
		dcur, v, from := dn, u, -1
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			cur := dcur
			if from != -1 {
				switch f := faq.NodeFactor(m.q, m.p, v, factors); {
				case f == nil:
				case m.indexesFactor(v):
					cur = m.joinAt(fix, from, cur, f)
				default:
					cur = relation.Join(m.s, cur, f)
				}
			}
			for _, c := range m.p.Children[v] {
				if c != from {
					cur = m.joinAt(mix, c, cur, msgs[c])
				}
			}
			dm, err := faq.EvalNode(m.q, cur, nil, m.p.Keep[v])
			if err != nil {
				return err
			}
			nm, err := relation.MergeAdd(m.s, msgs[v], dm)
			if err != nil {
				return err
			}
			if v != m.p.Root {
				mix[v] = rebase(mix[v], msgs[v], dm, nm)
			}
			msgs[v] = nm
			if dm.Len() == 0 || v == m.p.Root {
				break
			}
			dcur, from, v = dm, v, m.p.Parent[v]
		}
	}
	m.q.Factors, m.msgs, m.fix, m.mix = factors, msgs, fix, mix
	return nil
}

// indexesFactor reports whether node v's factor is a retained relation
// an index slot can follow: exactly one designated factor. A node with
// several joins them afresh on every probe (faq.NodeFactor), so deltas
// join it one-shot.
func (m *Materialized[T]) indexesFactor(v int) bool { return len(m.p.Edges[v]) == 1 }

// joinAt joins a delta against one retained relation through index
// slot c of slots, building the slot's index on its first probe.
func (m *Materialized[T]) joinAt(slots []*relation.SortedIndex, c int, small, big *relation.Relation[T]) *relation.Relation[T] {
	shared := hypergraph.IntersectSorted(small.Schema(), big.Schema())
	if !relation.IndexValidFor(slots[c], big, shared) {
		if slots[c] = relation.BuildSortedIndex(big, shared); slots[c] == nil {
			return relation.Join(m.s, small, big)
		}
		metricIndexBuilds.Inc()
	}
	return relation.JoinIndexed(m.s, small, big, slots[c])
}

// rebase carries a slot's index across the commit old ⊕ d = nw of the
// relation it orders. A rebase that had to build afresh counts as a
// build.
func rebase[T any](ix *relation.SortedIndex, old, d, nw *relation.Relation[T]) *relation.SortedIndex {
	nix, rebuilt := relation.RebaseIndex(ix, old, d, nw)
	switch {
	case rebuilt:
		metricIndexBuilds.Inc()
	case nix != ix && nix != nil:
		metricIndexRebases.Inc()
	}
	return nix
}

// isNegative reports a negative annotation (only meaningful for the
// Count support twin).
func isNegative[T any](s semiring.Semiring[T], v T) bool {
	if c, ok := any(v).(int64); ok {
		return c < 0
	}
	return false
}

// applyRecompute stages and commits one recompute-strategy update: per
// batch, fold the inserts/deletes into the edge's contribution ledger
// (copy-on-write), rebuild the factor by ⊕-folding each tuple's
// contributions, and re-run the full node task for every node on the
// edge's root path against the staged state. Sibling subtrees'
// messages depend only on their own factors and are reused untouched —
// the documented O(path × node) fallback for idempotent ⊕.
func (m *Materialized[T]) applyRecompute(ctx context.Context, batches []Batch[T]) error {
	factors := append([]*relation.Relation[T](nil), m.q.Factors...)
	msgs := append([]*relation.Relation[T](nil), m.msgs...)
	ledgers := append([]*ledger[T](nil), m.ledgers...)
	staged := make([]bool, len(ledgers))
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return err
		}
		lg := ledgers[b.Edge]
		if !staged[b.Edge] {
			lg = lg.clone()
			ledgers[b.Edge] = lg
			staged[b.Edge] = true
		}
		for _, t := range b.Inserts {
			lg.insert(t.Row, t.Val)
		}
		for _, t := range b.Deletes {
			if !lg.remove(m.s, t.Row, t.Val) {
				return fmt.Errorf("delta: tuple %v value %s on edge %d: %w", t.Row, m.s.Format(t.Val), b.Edge, ErrNoSuchTuple)
			}
		}
		factors[b.Edge] = lg.build(m.s, m.q.H.Edge(b.Edge))
		for v := m.p.NodeOf[b.Edge]; ; v = m.p.Parent[v] {
			if err := ctx.Err(); err != nil {
				return err
			}
			nm, err := faq.EvalAt(m.q, m.p, v, faq.NodeFactor(m.q, m.p, v, factors), msgs)
			if err != nil {
				return err
			}
			msgs[v] = nm
			if v == m.p.Root {
				break
			}
		}
	}
	m.q.Factors, m.msgs, m.ledgers = factors, msgs, ledgers
	return nil
}
