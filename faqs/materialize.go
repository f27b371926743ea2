package faqs

import (
	"context"
	"fmt"

	"repro/internal/delta"
	"repro/internal/service"
)

// TupleUpdate is one inserted or deleted tuple of a factor, in the
// factor's attribute order. Value carries the annotation in the
// semiring's float encoding (the same encoding QueryBuilder.Values and
// the wire accept); nil means the semiring's multiplicative identity 1,
// matching how plain tuples are annotated at build time.
type TupleUpdate struct {
	Tuple []int    `json:"tuple"`
	Value *float64 `json:"value,omitempty"`
}

// Materialized is a standing incremental view over one query: the
// engine retains every GHD node's message relation and re-answers
// updates by propagating semiring deltas up only the affected path
// (exact delta rules for count/sumproduct/f2, support counting for
// bool, and a documented group recompute fallback for the idempotent
// semirings and general FAQs). Close releases the retained state.
//
// A Materialized is safe for concurrent use; each Update is atomic —
// on any error the view is unchanged and remains usable.
type Materialized struct {
	q        *Query
	strategy delta.Strategy
	update   func(ctx context.Context, factor int, inserts, deletes []TupleUpdate) error
	answer   func() (*Result, error)
	closeFn  func()
}

// Materialize builds a standing incremental view of q. The query is
// planned and admitted exactly like Solve; shapes that would need the
// brute-force fallback (free variables outside every root bag) cannot
// be maintained incrementally and fail with a typed error.
func (e *Engine) Materialize(ctx context.Context, q *Query) (*Materialized, error) {
	r, err := e.runnerFor(q)
	if err != nil {
		return nil, err
	}
	return r.materialize(ctx, q)
}

// Update applies one batch of inserts and deletes against factor
// (index into the query's factor list, in declaration order) and
// re-answers incrementally. Deleting a tuple that was never inserted
// (or over-deleting a bool tuple's support) fails typed and leaves the
// view unchanged.
func (m *Materialized) Update(ctx context.Context, factor int, inserts, deletes []TupleUpdate) error {
	return m.update(ctx, factor, inserts, deletes)
}

// Answer returns the current materialized answer in the same shape
// Solve returns.
func (m *Materialized) Answer() (*Result, error) {
	return m.answer()
}

// Strategy names the maintenance strategy in use: "ring", "support",
// or "recompute".
func (m *Materialized) Strategy() string { return string(m.strategy) }

// Close releases the retained messages. Idempotent; subsequent Update
// and Answer calls fail.
func (m *Materialized) Close() { m.closeFn() }

// materialize is the typed implementation behind Engine.Materialize.
func (r *typedRunner[T]) materialize(ctx context.Context, q *Query) (*Materialized, error) {
	tq, err := r.typedQuery(q)
	if err != nil {
		return nil, err
	}
	mz, _, err := r.svc.Materialize(ctx, tq)
	if err != nil {
		return nil, err
	}
	conv := func(ups []TupleUpdate) []delta.Tuple[T] {
		out := make([]delta.Tuple[T], len(ups))
		for i, u := range ups {
			v := r.im.s.One()
			if u.Value != nil {
				v = r.im.conv(*u.Value)
			}
			out[i] = delta.Tuple[T]{Row: u.Tuple, Val: v}
		}
		return out
	}
	return &Materialized{
		q:        q,
		strategy: mz.Strategy(),
		update: func(ctx context.Context, factor int, inserts, deletes []TupleUpdate) error {
			if len(inserts) == 0 && len(deletes) == 0 {
				return fmt.Errorf("faqs: empty update batch for factor %d", factor)
			}
			return mz.Update(ctx, delta.Batch[T]{
				Edge:    factor,
				Inserts: conv(inserts),
				Deletes: conv(deletes),
			})
		},
		answer: func() (*Result, error) {
			ans, err := mz.Answer()
			if err != nil {
				return nil, err
			}
			return r.toResult(q, ans, (*service.Info)(nil)), nil
		},
		closeFn: mz.Close,
	}, nil
}
