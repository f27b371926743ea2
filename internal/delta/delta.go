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
// provided deletions can be expressed as ⊕-inverses (below). A ring
// view holds every factor and non-root message as base ⊕ tail: a large
// sorted base, which the per-site sorted indexes (relation.SortedIndex)
// order, and a small sorted tail of the deltas committed since. A
// commit ⊕-merges Δ into the tail and leaves the base and its indexes
// untouched. A probe is JoinIndexed(Δ, base) ⊕ Join(Δ, tail), exact
// because Join distributes over ⊕. Once |tail|² > |base|, that is
// |tail| > √n, the tail folds into the base (relation.MergeAdd) and
// every index of the base is carried across the fold
// (relation.RebaseIndex) instead of rebuilt. A fold copies the base
// once, but it comes at most once per √n committed rows, so a point
// update costs O(path · (|Δ| log n + fanout)) probe work plus, per
// committed relation, amortized O(|Δ|·√n) copy work; it never re-sorts.
// The root message is merged directly, so the answer is always one
// consolidated relation. bench/'s view_churn workload measures it.
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
// overrides) are not ⊕-linear; both recompute instead, group by group.
// The handle keeps a per-edge contribution ledger (a multiset per
// tuple, so deleting one of two equal contributions keeps the other)
// and re-folds only the tuples a batch touches. Each node's message is
// a set of groups, one per value of its variables, and each group
// depends only on its own rows of the node's inputs (Theorem G.3's
// pass). So at each node on the root path the handle recomputes just
// the groups the changed rows below reach: it restricts the factor and
// the children to them through sorted indexes (relation.Restrict), runs
// the node task on that restriction, and writes the groups whose value
// changed over the message. Within a group the rows keep their sorted
// order, so every group folds exactly as in the full pass, floats bit
// for bit. The walk stops at the first node where no group changed,
// appeared or vanished: an insert that does not beat its group's min
// stops at its first node.
//
// A recompute view holds its factors and non-root messages as a ring
// view does, as a base and a small sorted tail, but its tail overrides
// the base instead of adding to it: it lists the rows written since the
// last fold, the semiring's 0 for a base row that went. A restriction
// reads the base's rows through its index and writes the tail's over
// them. The tail folds into the base (relation.MergeReplace) under the
// same √n rule, and the base's indexes are carried across by
// RebaseIndex. The root message has no tail, so the answer is always
// one consolidated relation. So a point update costs O(path · (|Δ| + group) log n)
// search and node work plus amortized O(|Δ|·√n) copy work per written
// relation, whatever the size of the view. Nodes whose factor does not
// cover their message's and children's variables (a factorless core, a
// scalar message) re-run whole over their inputs' bases and tails
// merged, O(node). These updates are counted separately
// (Stats.Recomputes, surfaced as delta_fallbacks by the service layer).
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
	"math"
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
	// StrategyRecompute recomputes the message groups a delta reaches
	// along the affected path (MinPlus, MaxTimes, general FAQs —
	// idempotent or non-linear ⊕).
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
	// Recomputes counts the Updates served by group recompute (the
	// recompute strategy) instead of delta propagation.
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

	// A ring view holds factor e as q.Factors[e] ⊕ ftail[e] and the
	// message of non-root node v as msgs[v] ⊕ mtail[v] (package comment:
	// commits go to the tail, which folds into the base once
	// |tail|² > |base|). The root message has no tail. A recompute view
	// holds them alike, but its tail overrides the base instead of
	// adding to it (override): it lists the rows whose annotation
	// differs from the base's, the semiring's 0 for a base row that went.
	ftail, mtail []*relation.Relation[T]

	strategy    Strategy
	neg         func(T) T                 // ⊕-inverse (ring strategies)
	nonNegative bool                      // reject negative annotations (Bool support twin)
	ledgers     []*relation.Relation[[]T] // per-edge contribution ledgers (recompute, see stage)
	lift        *Materialized[int64]      // the Count twin (support strategy)
	boolAnswer  *relation.Relation[T]

	// fix and mix are the join build sides point deltas probe, one slot
	// of each per non-root node c: fix[c] orders the base of parent(c)'s
	// factor on the variables a delta arriving from c shares with it, and
	// mix[c] orders the base of msgs[c] for the deltas that join it at
	// parent(c). A slot is built on its first probe. Commits leave the
	// base alone, and a fold rebases every slot of the base it rewrites,
	// so a slot never goes stale and no update re-sorts retained state.
	// Memory is O(n) per indexed slot, the price of a standing view.
	// A recompute view uses fix the same way, to find the factor rows a
	// child's changed groups join.
	fix, mix []*relation.SortedIndex
	// gix[v] orders the factor base of node v of a recompute view on the
	// variables of v's message, for regroup's restriction to groups;
	// grouped[v] reports that v is recomputed group by group (groupable).
	gix     []*relation.SortedIndex
	grouped []bool

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
		m.ledgers = make([]*relation.Relation[[]T], len(qc.Factors))
		for e, f := range qc.Factors {
			m.ledgers[e] = relation.Empty[[]T](f.Schema())
		}
		m.fix = make([]*relation.SortedIndex, len(p.Parent))
		m.gix = make([]*relation.SortedIndex, len(p.Parent))
	}
	m.msgs, _, err = faq.Messages(ctx, &qc, p, faq.SolveOptions{Pool: opts.Pool})
	if err != nil {
		return nil, err
	}
	m.ftail, m.mtail = emptyLike(qc.Factors), emptyLike(m.msgs)
	if m.strategy == StrategyRecompute {
		m.grouped = make([]bool, len(p.Parent))
		for v := range m.grouped {
			m.grouped[v] = groupable(p, v, qc.Factors, m.msgs)
		}
	}
	return m, nil
}

// emptyLike returns one empty relation per relation of rs, over its
// schema: the tails of a freshly materialized view.
func emptyLike[T any](rs []*relation.Relation[T]) []*relation.Relation[T] {
	out := make([]*relation.Relation[T], len(rs))
	for i, r := range rs {
		out[i] = relation.Empty[T](r.Schema())
	}
	return out
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

// oneOf is the Bool view of a support count: every tuple c lists (its
// count is positive) annotated with the semiring's 1. c is the lifted
// answer, sorted, consolidated and zero-free already, so the Bool
// answer shares its row buffer and sorts nothing.
func oneOf[T any, U any](s semiring.Semiring[T], c *relation.Relation[U]) *relation.Relation[T] {
	one := s.One()
	return relation.Relabel(c, func(int) T { return one })
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
	m.msgs, m.ftail, m.mtail, m.ledgers, m.boolAnswer, m.fix, m.mix, m.gix = nil, nil, nil, nil, nil, nil, nil, nil
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
// commit the delta to the base factor's tail, then walk the edge's node
// path to the root propagating Δmsg — joining the delta first (it is
// small, so every intermediate stays small), then the node's factor and
// the unchanged sibling messages (each as base ⊕ tail, see probe),
// aggregating to the node's keep set (faq.EvalNode), and committing
// Δmsg to the node's message: to its tail below the root, into the
// consolidated answer at the root. Propagation stops early when a Δmsg
// cancels to empty.
func (m *Materialized[T]) applyRing(ctx context.Context, batches []Batch[T]) error {
	factors, ftail := slices.Clone(m.q.Factors), slices.Clone(m.ftail)
	msgs, mtail := slices.Clone(m.msgs), slices.Clone(m.mtail)
	fix, mix := slices.Clone(m.fix), slices.Clone(m.mix)
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return err
		}
		d := m.deltaFactor(b)
		if d.Len() == 0 {
			continue
		}
		e, u := b.Edge, m.p.NodeOf[b.Edge]
		var err error
		if factors[e], ftail[e], err = m.commit(factors[e], ftail[e], d, fix, m.p.Children[u]...); err != nil {
			return err
		}
		if m.nonNegative {
			for i := 0; i < d.Len(); i++ {
				if isNegative(m.s, m.valueAt(d.Tuple(i), factors[e], ftail[e])) {
					return fmt.Errorf("delta: tuple %v on edge %d: %w", d.Tuple(i), e, ErrNegativeSupport)
				}
			}
		}
		// Walk the root path. from == -1 means the delta replaces the
		// node's own factor; otherwise it replaces child `from`'s
		// message and the node's factor joins in.
		dcur, v, from := d, u, -1
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			cur := dcur
			if f := m.p.Factor[v]; from != -1 && f >= 0 {
				if cur, err = m.probe(fix, from, cur, factors[f], ftail[f]); err != nil {
					return err
				}
			}
			for _, c := range m.p.Children[v] {
				if c != from {
					if cur, err = m.probe(mix, c, cur, msgs[c], mtail[c]); err != nil {
						return err
					}
				}
			}
			dm, err := faq.EvalNode(m.q, cur, nil, m.p.Keep[v])
			if err != nil {
				return err
			}
			if v == m.p.Root {
				msgs[v], err = relation.MergeAdd(m.s, msgs[v], dm)
			} else {
				msgs[v], mtail[v], err = m.commit(msgs[v], mtail[v], dm, mix, v)
			}
			if err != nil {
				return err
			}
			if dm.Len() == 0 || v == m.p.Root {
				break
			}
			dcur, from, v = dm, v, m.p.Parent[v]
		}
	}
	m.q.Factors, m.ftail, m.msgs, m.mtail, m.fix, m.mix = factors, ftail, msgs, mtail, fix, mix
	return nil
}

// commit ⊕-merges d into the retained relation base ⊕ tail and returns
// its new parts. d goes into the tail, and base stays as it is until
// the tail has outgrown it. Then the tail folds into the base, and the
// index slots of slots named by sites, which order the base, are
// carried across the fold.
func (m *Materialized[T]) commit(base, tail, d *relation.Relation[T], slots []*relation.SortedIndex, sites ...int) (*relation.Relation[T], *relation.Relation[T], error) {
	tail, err := relation.MergeAdd(m.s, tail, d)
	if err != nil || !outgrown(base, tail) {
		return base, tail, err
	}
	nb, err := relation.MergeAdd(m.s, base, tail)
	if err != nil {
		return nil, nil, err
	}
	rebaseSites(slots, sites, base, tail, nb)
	metricFolds.Inc()
	return nb, relation.Empty[T](base.Schema()), nil
}

// outgrown is the fold rule: a tail folds into its base once
// |tail|² > |base|. Folding at |tail| > √n keeps the tail small enough
// that probing and re-merging it stays cheap, while the O(n) fold comes
// at most once per √n committed rows.
func outgrown[T any](base, tail *relation.Relation[T]) bool {
	return tail.Len()*tail.Len() > base.Len()
}

// probe joins a delta against the retained relation base ⊕ tail:
// JoinIndexed(small, base) through index slot c of slots, built on its
// first probe, ⊕ Join(small, tail). Join distributes over ⊕, so this is
// Join(small, base ⊕ tail) exactly for ℤ/2⁶⁴ and XOR, and up to float
// re-association for ℝ.
func (m *Materialized[T]) probe(slots []*relation.SortedIndex, c int, small, base, tail *relation.Relation[T]) (*relation.Relation[T], error) {
	shared := hypergraph.IntersectSorted(small.Schema(), base.Schema())
	if !relation.IndexValidFor(slots[c], base, shared) {
		if slots[c] = relation.BuildSortedIndex(base, shared); slots[c] != nil {
			metricIndexBuilds.Inc()
		}
	}
	out := relation.JoinIndexed(m.s, small, base, slots[c])
	if tail.Len() == 0 {
		return out, nil
	}
	return relation.MergeAdd(m.s, out, relation.Join(m.s, small, tail))
}

// valueAt returns row's annotation in the retained relation base ⊕ tail.
func (m *Materialized[T]) valueAt(row []int32, base, tail *relation.Relation[T]) T {
	v := m.s.Zero()
	for _, r := range [...]*relation.Relation[T]{base, tail} {
		if x, ok := relation.LookupRow(r, row); ok {
			v = m.s.Add(v, x)
		}
	}
	return v
}

// rebase carries a slot's index across the fold old ⊕ d = nw of the
// base it orders. A rebase that had to build afresh counts as a build.
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

// rebaseSites carries the index slots of sites, which order old, across
// its merge old → nw with d. Slots that share an index share its
// rebase.
func rebaseSites[T any](slots []*relation.SortedIndex, sites []int, old, d, nw *relation.Relation[T]) {
	prev := make([]*relation.SortedIndex, len(sites))
	for i, c := range sites {
		prev[i] = slots[c]
		if j := slices.Index(prev[:i], prev[i]); j >= 0 && prev[i] != nil {
			slots[c] = slots[sites[j]]
		} else {
			slots[c] = rebase(prev[i], old, d, nw)
		}
	}
}

// isNegative reports a negative annotation (only meaningful for the
// Count support twin).
func isNegative[T any](s semiring.Semiring[T], v T) bool {
	if c, ok := any(v).(int64); ok {
		return c < 0
	}
	return false
}

// applyRecompute stages and commits one recompute-strategy update. Per
// batch it stages the edge's contribution ledger (stage), re-folds the
// touched tuples, and writes only those whose annotation changed over
// the factor (override). Then it walks the edge's root path: at each
// node regroup recomputes just the groups of the node's message that
// the changed rows below reach and writes the ones whose value changed
// over the message. The walk stops at the first node, or already at the
// factor, where nothing changed, so an insert that does not beat the
// current min stops at its first node. Sibling subtrees' messages
// depend only on their own factors and are reused untouched.
func (m *Materialized[T]) applyRecompute(ctx context.Context, batches []Batch[T]) error {
	st := &staged[T]{
		factors: slices.Clone(m.q.Factors), ftail: slices.Clone(m.ftail),
		msgs: slices.Clone(m.msgs), mtail: slices.Clone(m.mtail),
		fix: slices.Clone(m.fix), gix: slices.Clone(m.gix),
	}
	ledgers := slices.Clone(m.ledgers)
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return err
		}
		e, u := b.Edge, m.p.NodeOf[b.Edge]
		f, ft := st.factors[e], st.ftail[e]
		var touched *relation.Relation[[]T]
		var err error
		if ledgers[e], touched, err = stage(m.s, ledgers[e], f, ft, b); err != nil {
			return err
		}
		var d edits[T]
		for i := 0; i < touched.Len(); i++ {
			ov, listed := overridden(m.s, touched.Tuple(i), f, ft)
			d.note(m.s, touched.Tuple(i), ov, listed, fold(m.s, touched.Value(i)))
		}
		if len(d.vals) == 0 {
			continue
		}
		dr := d.relation(f.Schema())
		st.factors[e], st.ftail[e], err = m.override(f, ft, dr, func(old, folded, nw *relation.Relation[T]) {
			rebaseSites(st.fix, m.p.Children[u], old, folded, nw)
			st.gix[u] = rebase(st.gix[u], old, folded, nw)
		})
		if err != nil {
			return err
		}
		for v, from := u, -1; ; v, from = m.p.Parent[v], v {
			if err := ctx.Err(); err != nil {
				return err
			}
			if dr, err = m.regroup(st, v, from, dr); err != nil {
				return err
			}
			if dr.Len() == 0 || v == m.p.Root {
				break
			}
		}
	}
	m.q.Factors, m.ftail, m.msgs, m.mtail, m.fix, m.gix, m.ledgers = st.factors, st.ftail, st.msgs, st.mtail, st.fix, st.gix, ledgers
	return nil
}

// staged is the state a recompute update works on: copies of the
// handle's slices, committed whole once every batch applied.
type staged[T any] struct {
	factors, ftail, msgs, mtail []*relation.Relation[T]
	fix, gix                    []*relation.SortedIndex
}

// override writes the edit list d over a relation of a recompute view
// held as base overridden by tail (the ftail field comment), and
// returns its new parts. d goes into the tail, and base stays as it is
// until commit's fold rule folds the tail into it; then carry, when not
// nil, carries the base's index slots across the fold.
func (m *Materialized[T]) override(base, tail, d *relation.Relation[T], carry func(old, folded, nw *relation.Relation[T])) (*relation.Relation[T], *relation.Relation[T], error) {
	tail, err := relation.MergeReplace(tail, d, func(T) bool { return false })
	if err != nil || !outgrown(base, tail) {
		return base, tail, err
	}
	// A 0 on a row the base does not list, one written and then emptied
	// since the last fold, is no edit: it leaves the tail first, so that
	// RebaseIndex carries the slots over the fold instead of rebuilding.
	var gone edits[T]
	for i := 0; i < tail.Len(); i++ {
		if !m.s.IsZero(tail.Value(i)) {
			continue
		}
		if _, listed := relation.LookupRow(base, tail.Tuple(i)); !listed {
			gone.rows, gone.vals = append(gone.rows, tail.Tuple(i)...), append(gone.vals, tail.Value(i))
		}
	}
	if tail, err = relation.MergeReplace(tail, gone.relation(base.Schema()), m.s.IsZero); err != nil {
		return nil, nil, err
	}
	nb, err := relation.MergeReplace(base, tail, m.s.IsZero)
	if err != nil {
		return nil, nil, err
	}
	if carry != nil {
		carry(base, tail, nb)
	}
	metricFolds.Inc()
	return nb, relation.Empty[T](base.Schema()), nil
}

// overridden returns row's annotation in a recompute view's relation,
// base overridden by tail, and whether the relation lists it.
func overridden[T any](s semiring.Semiring[T], row []int32, base, tail *relation.Relation[T]) (T, bool) {
	if v, ok := relation.LookupRow(tail, row); ok {
		return v, !s.IsZero(v)
	}
	return relation.LookupRow(base, row)
}

// merged returns a recompute view's relation, base overridden by tail,
// as one relation.
func merged[T any](s semiring.Semiring[T], base, tail *relation.Relation[T]) *relation.Relation[T] {
	r, _ := relation.MergeReplace(base, tail, s.IsZero) // one schema
	return r
}

// regroup recomputes node v's message after one of its inputs changed
// by the edit list d: its factor when from is -1, else child from's
// message. The groups d reaches are the keep-projections of the factor
// rows it changed or, for a child, the factor rows it joins (through
// index slot fix[from]). regroup restricts the factor to those groups
// (slot gix[v]) and each child to the restricted factor's rows, runs
// faq.EvalNode on the restriction, and writes the groups whose value
// changed over msgs[v]: into its tail below the root (override), into
// the consolidated answer at the root. Each group keeps its rows in
// their sorted order, so every group folds exactly as in the full pass.
// A node that does not pass groupable re-runs its whole node task
// instead, over its factor and children merged with their tails. It
// returns the edit list of v's message: the changed groups, with a
// deleted one annotated with the semiring's 0.
func (m *Materialized[T]) regroup(st *staged[T], v, from int, d *relation.Relation[T]) (*relation.Relation[T], error) {
	var dm edits[T]
	old, ot := st.msgs[v], st.mtail[v]
	f, ft := faq.NodeFactor(m.p, v, st.factors), faq.NodeFactor(m.p, v, st.ftail)
	if m.grouped[v] {
		reached := d
		if from >= 0 {
			reached = restrict(m.s, st.fix, from, f, ft, d, m.p.Children[v]...)
		}
		groups := keysOf(reached, old.Schema())
		fk := restrict(m.s, st.gix, v, f, ft, groups)
		kids := make([]*relation.Relation[T], len(m.p.Children[v]))
		for i, c := range m.p.Children[v] {
			kids[i] = within(m.s, st.msgs[c], st.mtail[c], keysOf(fk, st.msgs[c].Schema()), nil)
		}
		out, err := faq.EvalNode(m.q, fk, kids, m.p.Keep[v])
		if err != nil {
			return nil, err
		}
		for i, j := 0, 0; i < groups.Len(); i++ {
			g, nv := groups.Tuple(i), m.s.Zero()
			if j < out.Len() && slices.Equal(out.Tuple(j), g) {
				nv = out.Value(j)
				j++
			}
			ov, listed := overridden(m.s, g, old, ot)
			dm.note(m.s, g, ov, listed, nv)
		}
	} else {
		msgs := slices.Clone(st.msgs)
		for _, c := range m.p.Children[v] {
			msgs[c] = merged(m.s, msgs[c], st.mtail[c])
		}
		if f != nil {
			f = merged(m.s, f, ft)
		}
		nm, err := faq.EvalAt(m.q, m.p, v, f, msgs)
		if err != nil {
			return nil, err
		}
		dm.diff(m.s, merged(m.s, old, ot), nm)
	}
	dr := dm.relation(old.Schema())
	var err error
	if v == m.p.Root {
		st.msgs[v], err = relation.MergeReplace(old, dr, m.s.IsZero)
	} else {
		st.msgs[v], st.mtail[v], err = m.override(old, ot, dr, nil)
	}
	return dr, err
}

// groupable reports whether regroup can recompute node v group by group:
// v has a factor, its message has at least one variable, and the factor
// lists every variable of the message and of each child's message, so
// restricting the factor to some groups restricts the whole node to
// them. The retained messages fix the schemas, which no update changes.
func groupable[T any](p *faq.Pass, v int, factors, msgs []*relation.Relation[T]) bool {
	f := faq.NodeFactor(p, v, factors)
	if f == nil || len(msgs[v].Schema()) == 0 || !hypergraph.SubsetSorted(msgs[v].Schema(), f.Schema()) {
		return false
	}
	for _, c := range p.Children[v] {
		if !hypergraph.SubsetSorted(msgs[c].Schema(), f.Schema()) {
			return false
		}
	}
	return true
}

// restrict returns the rows of a recompute view's factor, base
// overridden by tail, whose values on keys' variables match a row of
// keys (within), through index slot c of slots for the base. A slot
// that does not serve base takes the index of a peer slot that does, on
// the same variables, and is built only when none does: sibling
// children that share their variables share one index of their
// parent's factor.
func restrict[T, U any](s semiring.Semiring[T], slots []*relation.SortedIndex, c int, base, tail *relation.Relation[T], keys *relation.Relation[U], peers ...int) *relation.Relation[T] {
	shared := keys.Schema()
	for _, p := range peers {
		if relation.IndexValidFor(slots[c], base, shared) {
			break
		}
		slots[c] = slots[p]
	}
	if !relation.IndexValidFor(slots[c], base, shared) {
		if slots[c] = relation.BuildSortedIndex(base, shared); slots[c] != nil {
			metricIndexBuilds.Inc()
		}
	}
	return within(s, base, tail, keys, slots[c])
}

// within returns the rows of base overridden by tail whose values on
// keys' variables match a row of keys (relation.Restrict): the base's,
// through ix, with the tail's written over them.
func within[T, U any](s semiring.Semiring[T], base, tail *relation.Relation[T], keys *relation.Relation[U], ix *relation.SortedIndex) *relation.Relation[T] {
	r := relation.Restrict(base, keys, ix)
	if tail.Len() == 0 {
		return r
	}
	return merged(s, r, relation.Restrict(tail, keys, nil))
}

// keysOf returns the distinct projections of r's rows on vars, a sorted
// subset of r's schema, as a key set.
func keysOf[T any](r *relation.Relation[T], vars []int) *relation.Relation[bool] {
	cols, _ := relation.Columns(r.Schema(), vars)
	b := relation.NewBuilderHint(semiring.Bool{}, vars, r.Len())
	key := make([]int32, len(cols))
	for i := 0; i < r.Len(); i++ {
		for k, c := range cols {
			key[k] = r.Tuple(i)[c]
		}
		b.AddRow(key, true)
	}
	return b.Build()
}

// edits collects an edit list for relation.MergeReplace in ascending
// row order: each row with its new annotation, the semiring's 0 for a
// row that goes.
type edits[T any] struct {
	rows []int32
	vals []T
}

// note records row when its annotation changes from ov (listed says it
// was listed) to nv, the semiring's 0 when it goes. A float counts as
// changed unless its bits are the same, since a value that moved within
// the semiring's tolerance still differs from a from-scratch pass.
func (x *edits[T]) note(s semiring.Semiring[T], row []int32, ov T, listed bool, nv T) {
	if listed == s.IsZero(nv) || listed && !same(ov, nv) {
		x.rows = append(x.rows, row...)
		x.vals = append(x.vals, nv)
	}
}

// diff records every row whose annotation differs between old and nw,
// two relations over the same schema, by one merge walk.
func (x *edits[T]) diff(s semiring.Semiring[T], old, nw *relation.Relation[T]) {
	i, j := 0, 0
	for i < old.Len() || j < nw.Len() {
		c := -1
		switch {
		case i == old.Len():
			c = 1
		case j < nw.Len():
			c = slices.Compare(old.Tuple(i), nw.Tuple(j))
		}
		switch {
		case c < 0:
			x.note(s, old.Tuple(i), old.Value(i), true, s.Zero())
			i++
		case c > 0:
			x.note(s, nw.Tuple(j), s.Zero(), false, nw.Value(j))
			j++
		default:
			x.note(s, old.Tuple(i), old.Value(i), true, nw.Value(j))
			i, j = i+1, j+1
		}
	}
}

// relation returns the collected edit list over schema.
func (x *edits[T]) relation(schema []int) *relation.Relation[T] {
	b := relation.NewBuilderHint(semiring.Bool{}, schema, len(x.vals))
	for i := range x.vals {
		b.AddRow(x.rows[i*len(schema):(i+1)*len(schema)], true)
	}
	return relation.Relabel(b.Build(), func(i int) T { return x.vals[i] })
}

// same reports whether two annotations are the same value, floats bit
// for bit.
func same[T any](a, b T) bool {
	if x, ok := any(a).(float64); ok {
		return math.Float64bits(x) == math.Float64bits(any(b).(float64))
	}
	return any(a) == any(b)
}
