package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/fault"
)

// solveSite injects faults into Solve's execute path, after admission
// and before the GHD pass (or the brute-force fallback).
var solveSite = fault.Register("service.solve")

// ErrOverloaded is the load-shedding sentinel: the service's in-flight
// gate is full, so the request was rejected before any work. Unlike
// ErrOverBudget (a property of the request's plan — retrying unchanged
// cannot succeed), overload is transient and the caller should retry
// after backing off; faqd maps it to 503 + Retry-After versus 429.
var ErrOverloaded = errors.New("service: overloaded, retry later")

// OverloadError is the typed load-shed rejection.
// errors.Is(err, ErrOverloaded) matches it.
type OverloadError struct {
	InFlight int // requests in flight when this one was rejected
	Limit    int // the gate's bound
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: %d requests in flight (limit %d): %v", e.InFlight, e.Limit, ErrOverloaded)
}

// Is makes errors.Is(err, ErrOverloaded) succeed on OverloadError values.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// ErrInternal is the panic-containment sentinel: a panic escaped a
// kernel or pool task and was recovered at the service boundary — the
// "typed errors, never panics" contract enforced at runtime. The
// concrete *InternalError records the recovered value and, when the
// panic was injected by a failpoint, the site.
var ErrInternal = errors.New("service: internal error")

// InternalError is the typed conversion of a recovered panic.
type InternalError struct {
	Site  string // failpoint site for injected panics, "" otherwise
	Value any    // the recovered panic value
}

func (e *InternalError) Error() string {
	if e.Site != "" {
		return fmt.Sprintf("service: recovered panic injected at failpoint %q: %v", e.Site, ErrInternal)
	}
	return fmt.Sprintf("service: recovered panic: %v: %v", e.Value, ErrInternal)
}

// Is makes errors.Is(err, ErrInternal) succeed on InternalError values.
func (e *InternalError) Is(target error) bool { return target == ErrInternal }

// asInternal converts a recovered panic value into the typed internal
// error, unwrapping the pool's *exec.TaskPanic envelope and recording
// the site of an injected *fault.InjectedPanic.
func asInternal(r any) *InternalError {
	val := r
	if tp, ok := val.(*exec.TaskPanic); ok {
		val = tp.Val
	}
	ie := &InternalError{Value: val}
	if ip, ok := val.(*fault.InjectedPanic); ok {
		ie.Site = ip.Site
	}
	return ie
}

// Gate bounds the number of requests in flight. One Gate is shared by
// every per-semiring service of an engine, so the bound is engine-wide.
// Acquisition never blocks: a full gate sheds immediately (typed
// *OverloadError), keeping rejection latency flat under overload.
type Gate struct {
	limit int64
	n     atomic.Int64
}

// NewGate returns a gate admitting at most limit concurrent requests
// (limit < 1 returns nil — an absent gate admits everything).
func NewGate(limit int) *Gate {
	if limit < 1 {
		return nil
	}
	return &Gate{limit: int64(limit)}
}

// TryAcquire claims a slot, reporting false when the gate is full.
func (g *Gate) TryAcquire() bool {
	if g.n.Add(1) > g.limit {
		g.n.Add(-1)
		return false
	}
	return true
}

// Release returns a slot claimed by a successful TryAcquire.
func (g *Gate) Release() { g.n.Add(-1) }

// InFlight returns the number of currently admitted requests.
func (g *Gate) InFlight() int { return int(g.n.Load()) }

// Limit returns the gate's bound.
func (g *Gate) Limit() int { return int(g.limit) }

// WithGate bounds in-flight admission with g (shared across services
// for an engine-wide bound). A nil gate disables shedding.
func WithGate(g *Gate) Option { return func(c *config) { c.gate = g } }

// WithDeadline caps each request's wall time: Solve, Materialize and
// Materialized.Update each run under a context.WithTimeout child of the
// caller's ctx, so every node task downstream is gated by it and a slow
// request returns context.DeadlineExceeded instead of holding its slot
// forever. d <= 0 disables the cap.
func WithDeadline(d time.Duration) Option { return func(c *config) { c.deadline = d } }

// serve is the resilience envelope of Solve, Materialize and
// Materialized.Update. It counts the request, claims a gate slot
// (shedding with a typed *OverloadError when the gate is full), applies
// the per-request deadline, and runs run under the service-boundary
// recover, which converts an escaped panic into a counted, typed
// *InternalError. The pool already re-surfaces worker panics on the
// calling goroutine (exec.TaskPanic), so this one recover is sufficient
// at every worker count. Any error is classified into the degradation
// counters.
func (sv *Service[T]) serve(ctx context.Context, run func(context.Context) error) (err error) {
	sv.met.requests.Inc()
	defer func() {
		if r := recover(); r != nil {
			sv.met.panics.Inc()
			err = asInternal(r)
		}
		if err != nil {
			sv.met.errors.Inc()
			if errors.Is(err, context.DeadlineExceeded) {
				sv.met.deadlineExceeded.Inc()
			}
		}
	}()
	if g := sv.cfg.gate; g != nil {
		if !g.TryAcquire() {
			sv.met.shed.Inc()
			return &OverloadError{InFlight: g.InFlight(), Limit: g.Limit()}
		}
		defer g.Release()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if sv.cfg.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sv.cfg.deadline)
		defer cancel()
	}
	return run(ctx)
}
