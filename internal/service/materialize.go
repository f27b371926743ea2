package service

import (
	"context"
	"fmt"
	"time"

	"repro/internal/delta"
	"repro/internal/faq"
	"repro/internal/plan"
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
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	sv.met.requests.Inc()
	fail := func(err error) (*Materialized[T], Info, error) {
		sv.countErr(err)
		info.TotalNS = time.Since(t0).Nanoseconds()
		sv.met.latency.Observe(info.TotalNS)
		return nil, info, err
	}
	if sv.cfg.gate != nil {
		if !sv.cfg.gate.TryAcquire() {
			return fail(sv.shedReject())
		}
		defer sv.cfg.gate.Release()
	}
	ctx, cancel := sv.withDeadline(ctx)
	defer cancel()

	m, err := sv.materializeAdmitted(ctx, q, &info)
	if err != nil {
		return fail(err)
	}
	info.TotalNS = time.Since(t0).Nanoseconds()
	sv.met.latency.Observe(info.TotalNS)
	return &Materialized[T]{sv: sv, m: m}, info, nil
}

// materializeAdmitted is Materialize past admission: the
// panic-containment boundary around planning and the initial full pass.
func (sv *Service[T]) materializeAdmitted(ctx context.Context, q *faq.Query[T], info *Info) (m *delta.Materialized[T], err error) {
	defer sv.recoverInternal(&err)
	t0 := time.Now()
	// Shape only: delta.Materialize domain-checks the tuples.
	if err := q.ValidateShape(); err != nil {
		return nil, err
	}
	fp, err := plan.Canonicalize(q.H, q.Free, opNames(q))
	if err != nil {
		return nil, err
	}
	info.CanonNS = time.Since(t0).Nanoseconds()

	tp := time.Now()
	p, hit, err := sv.cache.Get(sv.name+"|"+fp.Key, func() (*plan.Plan, error) { return plan.Compile(fp) })
	if err != nil {
		return nil, err
	}
	info.PlanNS = time.Since(tp).Nanoseconds()
	info.PlanHash = p.Hash
	info.CacheHit = hit
	if err := sv.admit(q, p); err != nil {
		return nil, err
	}
	if p.Fallback {
		sv.met.rejected.Inc()
		return nil, fmt.Errorf("service: cannot materialize a brute-force fallback shape: %w", faq.ErrFreeOutsideRoot)
	}

	tb := time.Now()
	g, err := p.Bind(fp, q.H)
	if err != nil {
		return nil, err
	}
	info.BindNS = time.Since(tb).Nanoseconds()
	te := time.Now()
	m, err = delta.Materialize(ctx, q, g, delta.Options{Pool: sv.cfg.pool})
	info.ExecNS = time.Since(te).Nanoseconds()
	return m, err
}

// Update applies insert/delete batches atomically under the service's
// resilience envelope. Successful updates increment the updates
// counter; updates served by the per-node recompute fallback (MinPlus,
// MaxTimes, general FAQ) also increment delta_fallbacks.
func (mz *Materialized[T]) Update(ctx context.Context, batches ...delta.Batch[T]) error {
	if ctx == nil {
		ctx = context.Background()
	}
	sv := mz.sv
	sv.met.requests.Inc()
	if sv.cfg.gate != nil {
		if !sv.cfg.gate.TryAcquire() {
			err := sv.shedReject()
			sv.countErr(err)
			return err
		}
		defer sv.cfg.gate.Release()
	}
	ctx, cancel := sv.withDeadline(ctx)
	defer cancel()
	err := mz.updateAdmitted(ctx, batches)
	if err != nil {
		sv.countErr(err)
		return err
	}
	sv.met.updates.Inc()
	if mz.m.Strategy() == delta.StrategyRecompute {
		sv.met.deltaFallbacks.Inc()
	}
	return nil
}

// updateAdmitted contains panics from the propagation kernels.
func (mz *Materialized[T]) updateAdmitted(ctx context.Context, batches []delta.Batch[T]) (err error) {
	defer mz.sv.recoverInternal(&err)
	return mz.m.Update(ctx, batches...)
}

// Answer returns the current materialized answer.
func (mz *Materialized[T]) Answer() (*relation.Relation[T], error) {
	return mz.m.Answer()
}

// Strategy exposes the maintenance strategy in use.
func (mz *Materialized[T]) Strategy() delta.Strategy { return mz.m.Strategy() }

// DeltaStats exposes the underlying handle's counters.
func (mz *Materialized[T]) DeltaStats() delta.Stats { return mz.m.Stats() }

// Close releases the retained messages. Idempotent.
func (mz *Materialized[T]) Close() { mz.m.Close() }
