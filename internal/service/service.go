// Package service is the query-serving layer on top of the plan cache:
// it admits FAQ requests, fingerprints their shape, binds the cached
// compiled plan (compiling once per shape under singleflight) to the
// request's fresh factor data, and executes on the shared exec pool with
// per-request cancellation. Solve, Materialize and Materialized.Update
// run inside one resilience envelope (request count, in-flight gate,
// per-request deadline, panic containment, error classification), and
// Solve, Materialize and Explain resolve their plan through one
// canonicalize → cache step.
//
// Answer contract: a served answer is exactly faq.SolveGHD(ctx, q, g, opts) for
// the bound plan GHD g. For exact semirings (Bool, Count, F2) that is
// bit-identical to per-request planning (faq.Solve) at every worker
// count; float semirings are equal modulo the semiring's re-association
// tolerance, the same allowance the distributed protocols need. Shapes
// violating the paper's free-variable restriction (F ⊄ every bag,
// Appendix G.5) fall back to faq.BruteForce, mirroring the solver
// contract.
package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/faq"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// ErrOverBudget is the admission-control sentinel: the plan's structural
// memory bound (plan.Plan.EstimateBytes, derived from the per-node
// NodeBounds) exceeds the service's configured budget, so the request is
// rejected before any execution work. Match with errors.Is; the concrete
// error is a *BudgetError carrying the numbers.
var ErrOverBudget = errors.New("service: plan memory bound exceeds budget")

// BudgetError is the typed admission-control rejection: the structural
// estimate for executing the plan against this request's data exceeds
// the configured budget. errors.Is(err, ErrOverBudget) matches it.
type BudgetError struct {
	EstimateBytes float64 // plan.EstimateBytes at the request's N
	BudgetBytes   int64   // the configured budget
	PlanHash      uint64  // fingerprint of the rejected plan
	N             int     // the request's max factor size
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("service: plan %016x needs ~%.3g bytes at N=%d, budget %d: %v",
		e.PlanHash, e.EstimateBytes, e.N, e.BudgetBytes, ErrOverBudget)
}

// Is makes errors.Is(err, ErrOverBudget) succeed on BudgetError values.
func (e *BudgetError) Is(target error) bool { return target == ErrOverBudget }

// Option configures a Service (functional options on New).
type Option func(*config)

type config struct {
	pool        *exec.Pool
	budget      int64
	gate        *Gate
	deadline    time.Duration
	metrics     *obs.Registry
	tracer      *obs.Tracer
	distributed any
}

// WithPool runs the service's GHD passes on a caller-owned exec pool
// instead of the process default. Worker counts never change answers —
// only scheduling — per the exec-layer contract.
func WithPool(p *exec.Pool) Option { return func(c *config) { c.pool = p } }

// WithMemoryBudget enables admission control: any request whose plan's
// structural bound (plan.Plan.EstimateBytes at the request's N) exceeds
// bytes is rejected with a *BudgetError before execution. bytes <= 0
// disables the check.
func WithMemoryBudget(bytes int64) Option { return func(c *config) { c.budget = bytes } }

// WithDistributed threads a faq.DistributedSolver for the service's
// value type into every solve (faq.SolveOptions.Distributed): eligible
// queries execute on the cluster, the rest run locally. The request
// still flows through admission, deadlines, metrics, and panic
// containment here — distribution changes where the pass runs, not the
// serving contract.
func WithDistributed(solver any) Option {
	return func(c *config) { c.distributed = solver }
}

// Info reports how one request was served.
type Info struct {
	PlanHash uint64  `json:"-"`
	Exact    bool    `json:"-"` // plan.Fingerprint.Exact: renamed twins share this plan
	CacheHit bool    `json:"cache_hit"`
	Fallback bool    `json:"fallback"`
	CanonNS  int64   `json:"canon_ns"`
	PlanNS   int64   `json:"plan_ns"` // cache round-trip (compile on miss)
	AdmitNS  int64   `json:"-"`       // admission check (budget)
	BindNS   int64   `json:"bind_ns"`
	ExecNS   int64   `json:"exec_ns"`
	TotalNS  int64   `json:"total_ns"`
	NodeNS   []int64 `json:"-"` // per-GHD-node exec durations (trace spans)
}

// Service serves queries of one semiring. Instances share a plan.Cache
// (keys are namespaced by the semiring name) and the process-wide exec
// pool.
type Service[T any] struct {
	s     semiring.Semiring[T]
	name  string
	cache *plan.Cache
	cfg   config
	met   svcMetrics
}

// New returns a service over semiring s. name namespaces the cache keys
// (use the wire semiring name); cache may be shared across services.
// Options configure the exec pool, admission control, the brute-force
// fallback policy, and observability (WithMetrics/WithTracer). Without
// WithMetrics, counters bind to a private registry, so independently
// constructed services never share counts.
func New[T any](s semiring.Semiring[T], name string, cache *plan.Cache, opts ...Option) *Service[T] {
	sv := &Service[T]{s: s, name: name, cache: cache}
	for _, o := range opts {
		o(&sv.cfg)
	}
	if sv.cfg.metrics == nil {
		sv.cfg.metrics = obs.NewRegistry()
	}
	sv.met = bindMetrics(sv.cfg.metrics, name)
	return sv
}

// Stats is the service-level counter snapshot. The degradation
// counters (Shed, DeadlineExceeded, Panics) let operators see graceful
// degradation directly instead of inferring it from Errors: Rejected is
// budget admission control (429 — retrying unchanged cannot succeed),
// Shed is transient overload (503 — retry after backoff),
// DeadlineExceeded is requests cut off by the per-request deadline, and
// Panics counts panics recovered into typed internal errors at the
// service boundary.
type Stats struct {
	Semiring         string `json:"semiring"`
	Requests         int64  `json:"requests"`
	Fallbacks        int64  `json:"fallbacks"`
	Rejected         int64  `json:"rejected"` // admission-control rejections
	Errors           int64  `json:"errors"`
	Shed             int64  `json:"shed"`              // in-flight gate rejections
	DeadlineExceeded int64  `json:"deadline_exceeded"` // per-request deadline hits
	Panics           int64  `json:"panics"`            // panics recovered to ErrInternal
	Updates          int64  `json:"updates"`           // materialized-handle update batches applied
	DeltaFallbacks   int64  `json:"delta_fallbacks"`   // updates served by group recompute fallback
}

// Stats snapshots the current counters through the registry. Each
// counter is a single monotone atomic, so every field is individually
// monotone across snapshots; the fields are not a consistent cut of one
// instant. The loads are ordered inverse to the increment order —
// outcome counters before the request counters that precede them on
// every request path — which guarantees the snapshot never shows an
// outcome without its request (e.g. Errors ≤ Requests,
// DeltaFallbacks ≤ Updates ≤ Requests always hold in a snapshot taken
// under load).
func (sv *Service[T]) Stats() Stats {
	st := Stats{Semiring: sv.name}
	// Outcome-class counters first (each is incremented strictly after
	// the requests/updates counter on its path)...
	st.DeltaFallbacks = sv.met.deltaFallbacks.Value()
	st.Updates = sv.met.updates.Value()
	st.Panics = sv.met.panics.Value()
	st.DeadlineExceeded = sv.met.deadlineExceeded.Value()
	st.Shed = sv.met.shed.Value()
	st.Rejected = sv.met.rejected.Value()
	st.Fallbacks = sv.met.fallbacks.Value()
	st.Errors = sv.met.errors.Value()
	// ...then the request counter they are subsets of.
	st.Requests = sv.met.requests.Value()
	return st
}

// opNames derives the renaming-invariant aggregate markers of a query's
// bound-variable overrides. Plan structure does not depend on the
// operator, so the coarse product/semiring distinction suffices.
func opNames[T any](q *faq.Query[T]) map[int]string {
	if len(q.VarOps) == 0 {
		return nil
	}
	out := make(map[int]string, len(q.VarOps))
	for v, op := range q.VarOps {
		if op.IsProduct() {
			out[v] = "mul"
		} else {
			out[v] = "agg"
		}
	}
	return out
}

// Solve serves one request: admit (in-flight gate), fingerprint,
// cached plan, bind, execute — under the configured per-request
// deadline. ctx cancels cooperatively — the GHD pass stops dispatching
// node tasks once ctx is done (exec.Pool.ForestCtx) and ctx.Err() is
// returned. A panic escaping any layer below (kernel, pool task,
// compile) is recovered here into a typed *InternalError.
func (sv *Service[T]) Solve(ctx context.Context, q *faq.Query[T]) (ans *relation.Relation[T], info Info, err error) {
	t0 := time.Now()
	err = sv.serve(ctx, func(ctx context.Context) (err error) {
		ans, err = sv.execute(ctx, q, &info)
		return err
	})
	info.TotalNS = time.Since(t0).Nanoseconds()
	sv.met.latency.Observe(info.TotalNS)
	sv.recordTrace(t0, &info, err)
	return ans, info, err
}

// admit applies admission control to a resolved plan, before any
// execution work: over-budget requests are rejected with a
// *BudgetError. A fallback plan is priced at the brute-force join over
// every variable, so the budget also decides whether the exponential
// path may run.
func (sv *Service[T]) admit(q *faq.Query[T], p *plan.Plan) error {
	if sv.cfg.budget > 0 {
		n := q.MaxFactorSize()
		if est := p.EstimateBytes(n); est > float64(sv.cfg.budget) {
			sv.met.rejected.Inc()
			return &BudgetError{EstimateBytes: est, BudgetBytes: sv.cfg.budget, PlanHash: p.Hash, N: n}
		}
	}
	return nil
}

// execute is Solve inside the envelope: resolve the plan, admit, then
// run the GHD pass on the bound plan (or the brute-force fallback).
func (sv *Service[T]) execute(ctx context.Context, q *faq.Query[T], info *Info) (*relation.Relation[T], error) {
	t0 := time.Now()
	// Shape only: faq.SolveGHD or faq.BruteForce domain-checks the tuples
	// when it executes the query.
	if err := q.ValidateShape(); err != nil {
		return nil, err
	}
	p, fp, err := sv.resolve(q, t0, info)
	if err != nil {
		return nil, err
	}
	ta := time.Now()
	err = sv.admit(q, p)
	info.AdmitNS = time.Since(ta).Nanoseconds()
	if err != nil {
		return nil, err
	}
	if err := solveSite.Hit(ctx); err != nil {
		return nil, err
	}
	if p.Fallback {
		info.Fallback = true
		sv.met.fallbacks.Inc()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		te := time.Now()
		ans, err := faq.BruteForce(q)
		info.ExecNS = time.Since(te).Nanoseconds()
		if err != nil {
			return nil, err
		}
		p.RecordExec(nil)
		return ans, nil
	}
	g, err := bind(p, fp, q.H, info)
	if err != nil {
		return nil, err
	}
	te := time.Now()
	ans, m, err := faq.SolveGHD(ctx, q, g, faq.SolveOptions{
		Pool: sv.cfg.pool, Timed: true, Distributed: sv.cfg.distributed,
	})
	info.ExecNS = time.Since(te).Nanoseconds()
	if err != nil {
		return nil, err
	}
	info.NodeNS = m.Costs
	p.RecordExec(m.Costs)
	return ans, nil
}

// resolve fingerprints q's shape and fetches its plan from the cache,
// compiling it on a miss. It fills info's canonicalization (timed from
// t0) and plan-cache fields.
func (sv *Service[T]) resolve(q *faq.Query[T], t0 time.Time, info *Info) (*plan.Plan, *plan.Fingerprint, error) {
	fp, err := plan.Canonicalize(q.H, q.Free, opNames(q))
	if err != nil {
		return nil, nil, err
	}
	info.CanonNS = time.Since(t0).Nanoseconds()
	info.Exact = fp.Exact
	tp := time.Now()
	p, hit, err := sv.cache.Get(sv.name+"|"+fp.Key, func() (*plan.Plan, error) { return plan.Compile(fp) })
	if err != nil {
		return nil, nil, err
	}
	info.PlanNS = time.Since(tp).Nanoseconds()
	info.PlanHash = p.Hash
	info.CacheHit = hit
	return p, fp, nil
}

// bind binds a resolved plan's decomposition onto h's own variable ids,
// timing it into info.BindNS.
func bind(p *plan.Plan, fp *plan.Fingerprint, h *hypergraph.Hypergraph, info *Info) (*ghd.GHD, error) {
	tb := time.Now()
	g, err := p.Bind(fp, h)
	info.BindNS = time.Since(tb).Nanoseconds()
	return g, err
}

// Explain resolves (compiling on a miss, counted exactly like Solve) the
// plan for q's shape and binds its decomposition onto the request's own
// variable ids, without executing anything. It returns the compiled
// plan, the bound GHD (nil for brute-force fallback shapes), and the
// serving metadata — fingerprint, cache hit/miss, canonicalization and
// plan-fetch timings. This is the data behind faqs.Engine.Explain and
// faqd's /explain endpoint.
func (sv *Service[T]) Explain(q *faq.Query[T]) (*plan.Plan, *ghd.GHD, Info, error) {
	t0 := time.Now()
	var info Info
	if err := q.Validate(); err != nil {
		return nil, nil, info, err
	}
	p, fp, err := sv.resolve(q, t0, &info)
	if err != nil {
		return nil, nil, info, err
	}
	info.Fallback = p.Fallback
	var g *ghd.GHD
	if !p.Fallback {
		if g, err = bind(p, fp, q.H, &info); err != nil {
			return nil, nil, info, err
		}
	}
	info.TotalNS = time.Since(t0).Nanoseconds()
	return p, g, info, nil
}
