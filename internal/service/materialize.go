package service

import (
	"context"
	"fmt"
	"time"

	"repro/internal/delta"
	"repro/internal/faq"
	"repro/internal/relation"
)

// Materialized is the service-level incremental handle: a delta
// handle wrapped in the same resilience envelope as Solve — in-flight
// gate, per-update deadline, panic containment — with its updates
// feeding the service counters (updates, delta_fallbacks).
type Materialized[T any] struct {
	sv *Service[T]
	m  *delta.Materialized[T]
}

// Materialize admits and plans q exactly like Solve (fingerprint,
// cached plan, bind), then builds an incremental handle retaining every
// GHD node's message. Brute-force-fallback shapes cannot be maintained
// incrementally: they fail typed, wrapping faq.ErrFreeOutsideRoot so
// callers can distinguish "unmaintainable shape" from transient errors.
func (sv *Service[T]) Materialize(ctx context.Context, q *faq.Query[T]) (mz *Materialized[T], info Info, err error) {
	t0 := time.Now()
	err = sv.serve(ctx, func(ctx context.Context) error {
		t := time.Now()
		// Shape only: delta.Materialize domain-checks the tuples.
		if err := q.ValidateShape(); err != nil {
			return err
		}
		p, fp, err := sv.resolve(q, t, &info)
		if err != nil {
			return err
		}
		if err := sv.admit(q, p); err != nil {
			return err
		}
		if p.Fallback {
			sv.met.rejected.Inc()
			return fmt.Errorf("service: cannot materialize a brute-force fallback shape: %w", faq.ErrFreeOutsideRoot)
		}
		g, err := bind(p, fp, q.H, &info)
		if err != nil {
			return err
		}
		te := time.Now()
		m, err := delta.Materialize(ctx, q, g, delta.Options{Pool: sv.cfg.pool})
		info.ExecNS = time.Since(te).Nanoseconds()
		if err != nil {
			return err
		}
		mz = &Materialized[T]{sv: sv, m: m}
		return nil
	})
	info.TotalNS = time.Since(t0).Nanoseconds()
	sv.met.latency.Observe(info.TotalNS)
	return mz, info, err
}

// Update applies insert/delete batches atomically under the service's
// resilience envelope. Successful updates increment the updates
// counter; updates served by the per-node recompute fallback (MinPlus,
// MaxTimes, general FAQ) also increment delta_fallbacks.
func (mz *Materialized[T]) Update(ctx context.Context, batches ...delta.Batch[T]) error {
	sv := mz.sv
	return sv.serve(ctx, func(ctx context.Context) error {
		if err := mz.m.Update(ctx, batches...); err != nil {
			return err
		}
		sv.met.updates.Inc()
		if mz.m.Strategy() == delta.StrategyRecompute {
			sv.met.deltaFallbacks.Inc()
		}
		return nil
	})
}

// Answer returns the current materialized answer.
func (mz *Materialized[T]) Answer() (*relation.Relation[T], error) {
	return mz.m.Answer()
}

// Strategy exposes the maintenance strategy in use.
func (mz *Materialized[T]) Strategy() delta.Strategy { return mz.m.Strategy() }

// Close releases the retained messages. Idempotent.
func (mz *Materialized[T]) Close() { mz.m.Close() }
