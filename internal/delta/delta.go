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

	// A ring view holds factor e as q.Factors[e] ⊕ ftail[e] and the
	// message of non-root node v as msgs[v] ⊕ mtail[v] (package comment:
	// commits go to the tail, which folds into the base once
	// |tail|² > |base|). The root message has no tail.
	ftail, mtail []*relation.Relation[T]

	strategy    Strategy
	neg         func(T) T            // ⊕-inverse (ring strategies)
	nonNegative bool                 // reject negative annotations (Bool support twin)
	ledgers     []*ledger[T]         // per-edge contribution multisets (recompute)
	lift        *Materialized[int64] // the Count twin (support strategy)
	boolAnswer  *relation.Relation[T]

	// fix and mix are the join build sides point deltas probe, one slot
	// of each per non-root node c: fix[c] orders the base of parent(c)'s
	// factor on the variables a delta arriving from c shares with it, and
	// mix[c] orders the base of msgs[c] for the deltas that join it at
	// parent(c). A slot is built on its first probe. Commits leave the
	// base alone, and a fold rebases every slot of the base it rewrites,
	// so a slot never goes stale and no update re-sorts retained state.
	// Memory is O(n) per indexed slot, the price of a standing view.
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
	if m.strategy == StrategyRing {
		m.ftail, m.mtail = emptyLike(qc.Factors), emptyLike(m.msgs)
	}
	return m, nil
}

// emptyLike returns one empty relation per relation of rs, over its
// schema: the tails of a freshly materialized ring view.
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
	m.msgs, m.ftail, m.mtail, m.ledgers, m.boolAnswer, m.fix, m.mix = nil, nil, nil, nil, nil, nil, nil
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
// |tail|² > |base|. Then the tail folds into the base, and the index
// slots of slots named by sites, which order the base, are carried
// across the fold. Folding at |tail| > √n keeps the tail small enough
// that probing and re-merging it stays cheap, while the O(n) fold comes
// at most once per √n committed rows.
func (m *Materialized[T]) commit(base, tail, d *relation.Relation[T], slots []*relation.SortedIndex, sites ...int) (*relation.Relation[T], *relation.Relation[T], error) {
	tail, err := relation.MergeAdd(m.s, tail, d)
	if err != nil || tail.Len()*tail.Len() <= base.Len() {
		return base, tail, err
	}
	nb, err := relation.MergeAdd(m.s, base, tail)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range sites {
		slots[c] = rebase(slots[c], base, tail, nb)
	}
	metricFolds.Inc()
	return nb, relation.Empty[T](base.Schema()), nil
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
			nm, err := faq.EvalAt(m.q, m.p, v, faq.NodeFactor(m.p, v, factors), msgs)
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
