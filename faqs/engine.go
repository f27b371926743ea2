package faqs

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/faq"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/service"
)

// Typed errors of the serving path, re-exported from the internal layers
// so façade users can errors.Is without reaching inside.
var (
	// ErrOverBudget matches admission-control rejections: the plan's
	// structural memory bound (per-node NodeBounds at the request's N)
	// exceeds the engine's WithMemoryBudget. Raised before execution.
	ErrOverBudget = service.ErrOverBudget
	// ErrFreeOutsideRoot is the underlying structural condition: no bag
	// of the decomposition covers the free variables (F ⊄ V(C(H)),
	// Appendix G.5 of the paper).
	ErrFreeOutsideRoot = faq.ErrFreeOutsideRoot
	// ErrOverloaded matches load-shed rejections: the engine's in-flight
	// gate (WithMaxInFlight) was full. Transient — retry after backoff.
	// Contrast ErrOverBudget, where retrying unchanged cannot succeed.
	ErrOverloaded = service.ErrOverloaded
	// ErrInternal matches panics recovered at the service boundary into
	// typed errors — the "typed errors, never panics" façade contract.
	ErrInternal = service.ErrInternal
)

// SetDefaultWorkers sets the process-wide default parallelism used by
// every engine without a private WithWorkers pool — the GHD forest
// scheduler and the relation kernels' intra-operator partitioning. It
// returns the previous raw setting (0 = tracking GOMAXPROCS) so callers
// can restore it. Worker counts never change answers, only scheduling.
func SetDefaultWorkers(n int) int { return exec.SetWorkers(n) }

// DefaultWorkers returns the current process-wide default parallelism.
func DefaultWorkers() int { return exec.Workers() }

// Option configures an Engine (functional options on NewEngine).
type Option func(*engineConfig)

type engineConfig struct {
	cacheSize    int
	workers      int
	budget       int64
	deadline     time.Duration
	maxInFlight  int
	clusterAddrs []string
}

// WithWorkers gives the engine a private exec pool of n workers for its
// GHD forest passes instead of the process default. Kernel-level
// partitioning inside relation operators still follows the process-wide
// default (SetDefaultWorkers); per the exec-layer contract both knobs
// are pure scheduling — answers are bit-identical at any setting.
func WithWorkers(n int) Option { return func(c *engineConfig) { c.workers = n } }

// WithPlanCache bounds the engine's compiled-plan LRU to size shapes
// (<= 0 uses the default capacity). Plans compile once per
// variable-renaming-invariant query shape under singleflight and are
// shared across every semiring service of the engine.
func WithPlanCache(size int) Option { return func(c *engineConfig) { c.cacheSize = size } }

// WithMemoryBudget enables admission control: a query whose plan's
// structural bound — the sum of per-node output bounds (N tuples for
// label-covered nodes per eq. 24, N^|χ(v)| for a fat core root, N^|V|
// for a shape that takes the brute-force fallback), priced at the
// columnar layout — exceeds bytes is rejected with an error
// matching ErrOverBudget before any execution work. bytes <= 0 disables
// the check.
func WithMemoryBudget(bytes int64) Option { return func(c *engineConfig) { c.budget = bytes } }

// WithDeadline caps every request's wall time: each Solve, Materialize
// and Materialized.Update runs under a context.WithTimeout child of the
// caller's ctx, so every node task downstream is gated and a slow
// request returns context.DeadlineExceeded instead of running forever.
// d <= 0 disables the cap.
func WithDeadline(d time.Duration) Option { return func(c *engineConfig) { c.deadline = d } }

// WithMaxInFlight bounds concurrent requests engine-wide (one shared
// gate across all semiring services): when n requests are already in
// flight, further ones are shed immediately with an error matching
// ErrOverloaded — flat rejection latency under overload, so the daemon
// can answer 503 + Retry-After instead of queueing unboundedly.
// n <= 0 disables shedding.
func WithMaxInFlight(n int) Option { return func(c *engineConfig) { c.maxInFlight = n } }

// Engine is the library's serving front end: one plan cache, one worker
// configuration, and one typed service per registered semiring, all
// behind a semiring-erased façade. Construct once, share freely —
// engines are safe for concurrent use.
type Engine struct {
	cache   *plan.Cache
	pool    *exec.Pool
	workers int
	runners map[string]runner
	metrics *obs.Registry
	tracer  *obs.Tracer
	runtime *obs.RuntimeCollector
	cluster *cluster.Client
}

// NewEngine builds an engine from functional options.
func NewEngine(opts ...Option) *Engine {
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	e := &Engine{
		cache:   plan.NewCache(cfg.cacheSize),
		runners: make(map[string]runner, len(registry)),
		metrics: obs.NewRegistry(),
		tracer:  obs.NewTracer(traceBufferSize),
	}
	e.runtime = obs.NewRuntimeCollector(e.metrics)
	svcOpts := []service.Option{
		service.WithMetrics(e.metrics),
		service.WithTracer(e.tracer),
	}
	if cfg.workers > 0 {
		e.workers = cfg.workers
		e.pool = exec.New(cfg.workers)
		svcOpts = append(svcOpts, service.WithPool(e.pool))
	}
	if cfg.budget > 0 {
		svcOpts = append(svcOpts, service.WithMemoryBudget(cfg.budget))
	}
	if cfg.deadline > 0 {
		svcOpts = append(svcOpts, service.WithDeadline(cfg.deadline))
	}
	if g := service.NewGate(cfg.maxInFlight); g != nil {
		svcOpts = append(svcOpts, service.WithGate(g))
	}
	if len(cfg.clusterAddrs) > 0 {
		// WithClusterWorkers already dropped blank entries, so the
		// transport constructor cannot fail here.
		if tr, err := cluster.NewTCPTransport(cfg.clusterAddrs, cluster.TCPOptions{}); err == nil {
			e.cluster = cluster.NewClient(tr, cluster.Options{})
		}
	}
	for _, s := range registry {
		e.runners[s.name] = s.impl.newRunner(s.name, e.cache, e.cluster, svcOpts)
	}
	return e
}

func (e *Engine) runnerFor(q *Query) (runner, error) {
	if q == nil || q.typed == nil {
		return nil, fmt.Errorf("faqs: nil or unbuilt query (use NewQuery(...).Build())")
	}
	r, ok := e.runners[q.sem.name]
	if !ok {
		return nil, fmt.Errorf("faqs: no runner for semiring %q", q.sem.name)
	}
	return r, nil
}

// Solve serves one query: fingerprint its shape, reuse (or compile once)
// the cached plan, bind it to the query's data, and run the GHD
// bottom-up pass with per-request cancellation via ctx. The Result
// carries the answer and the serving metadata (plan fingerprint, cache
// hit/miss, stage timings).
func (e *Engine) Solve(ctx context.Context, q *Query) (*Result, error) {
	r, err := e.runnerFor(q)
	if err != nil {
		return nil, err
	}
	return r.solve(ctx, q)
}

// Explain compiles (or fetches) the query's plan and reports it without
// executing: the canonical GHD tree bound to the query's own variable
// names, the paper's widths (y(H), n₂(H), hypertree width, depth),
// per-node output bounds, the admission-control estimate, and the cache
// fingerprint with its hit/miss status.
func (e *Engine) Explain(q *Query) (*Explain, error) {
	r, err := e.runnerFor(q)
	if err != nil {
		return nil, err
	}
	return r.explain(q)
}

// SolveOnNetwork executes the query with the paper's distributed
// protocol on a synchronous network topology: factors live at the
// players given by assign (assign[e] holds factor e), the player output
// must learn the answer, and the run reports measured rounds/bits for
// the main protocol and the trivial baseline next to the closed-form
// bounds. Planning goes through the same shared faq.PlanGHD primitive
// the engine's centralized path uses.
func (e *Engine) SolveOnNetwork(q *Query, topo Topology, assign []int, output int) (*NetworkRun, error) {
	r, err := e.runnerFor(q)
	if err != nil {
		return nil, err
	}
	if topo.g == nil {
		return nil, fmt.Errorf("faqs: empty topology (use Line/Clique/Star/Ring/Grid)")
	}
	return r.network(q, topo, assign, output)
}

// SolveStats is the per-stage timing breakdown of one served request.
type SolveStats struct {
	CanonNS int64 `json:"canon_ns"`
	PlanNS  int64 `json:"plan_ns"` // cache round-trip (compile on miss)
	BindNS  int64 `json:"bind_ns"`
	ExecNS  int64 `json:"exec_ns"`
	TotalNS int64 `json:"total_ns"`
}

// Result is one served answer: the relation (attribute names, tuples,
// float64 values) plus serving metadata. Scalar queries (no free
// variables) always hold exactly one row — the empty tuple whose value
// is the aggregate (the semiring's 0 when no tuple survived).
type Result struct {
	Schema []string  `json:"schema"`
	Tuples [][]int   `json:"tuples"`
	Values []float64 `json:"values"`

	PlanHash string     `json:"plan_hash,omitempty"` // fingerprint of the served plan
	CacheHit bool       `json:"cache_hit"`
	Fallback bool       `json:"fallback,omitempty"`
	Stats    SolveStats `json:"stats"`
}

// Len returns the number of answer rows.
func (r *Result) Len() int { return len(r.Tuples) }

// Scalar returns the value of a scalar (no-free-variable) answer.
func (r *Result) Scalar() (float64, error) {
	if len(r.Schema) != 0 || len(r.Values) != 1 {
		return 0, fmt.Errorf("faqs: answer is not scalar (schema %v, %d rows)", r.Schema, len(r.Values))
	}
	return r.Values[0], nil
}

// CacheStats mirrors the plan cache counters.
type CacheStats struct {
	Capacity  int   `json:"capacity"`
	Len       int   `json:"len"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Compiles  int64 `json:"compiles"`
	Failures  int64 `json:"failures"`
	Evictions int64 `json:"evictions"`
}

// ServiceStats mirrors one semiring service's request counters. The
// degradation counters separate the failure classes operators care
// about: Rejected is budget admission control (HTTP 429), Shed is
// transient overload from the in-flight gate (503), DeadlineExceeded is
// per-request deadline hits, and Panics counts panics recovered into
// typed internal errors at the service boundary.
type ServiceStats struct {
	Semiring         string `json:"semiring"`
	Requests         int64  `json:"requests"`
	Fallbacks        int64  `json:"fallbacks"`
	Rejected         int64  `json:"rejected"`
	Errors           int64  `json:"errors"`
	Shed             int64  `json:"shed"`
	DeadlineExceeded int64  `json:"deadline_exceeded"`
	Panics           int64  `json:"panics"`
	Updates          int64  `json:"updates"`         // materialized-handle update batches
	DeltaFallbacks   int64  `json:"delta_fallbacks"` // updates served by recompute fallback
}

// PlanNodeBound is the per-GHD-node slice of the paper's structural
// bounds, as surfaced in Stats.
type PlanNodeBound struct {
	Bag      int  `json:"bag"`
	Labels   int  `json:"labels"`
	Internal bool `json:"internal"`
}

// PlanInfo snapshots one resident compiled plan.
type PlanInfo struct {
	Hash       string          `json:"hash"`
	Y          int             `json:"y"`
	N2         int             `json:"n2"`
	Depth      int             `json:"depth"`
	Nodes      int             `json:"nodes"`
	Fallback   bool            `json:"fallback"`
	CompileNS  int64           `json:"compile_ns"`
	Hits       int64           `json:"hits"`
	Execs      int64           `json:"execs"`
	WorkNS     int64           `json:"work_ns"`
	CritPathNS int64           `json:"crit_path_ns"`
	NodeBounds []PlanNodeBound `json:"node_bounds,omitempty"`
}

// Stats is the engine-wide snapshot: worker configuration, plan-cache
// counters, per-semiring service counters, and the resident plan table.
type Stats struct {
	Workers  int            `json:"workers"`
	Cache    CacheStats     `json:"cache"`
	Services []ServiceStats `json:"services"`
	Plans    []PlanInfo     `json:"plans"`
}

// Stats returns the engine's current counters.
func (e *Engine) Stats() Stats {
	cs := e.cache.Stats()
	st := Stats{
		Workers: e.workers,
		Cache: CacheStats{
			Capacity: cs.Capacity, Len: cs.Len, Hits: cs.Hits, Misses: cs.Misses,
			Compiles: cs.Compiles, Failures: cs.Failures, Evictions: cs.Evictions,
		},
	}
	if st.Workers == 0 {
		st.Workers = exec.Workers()
	}
	for _, s := range registry {
		st.Services = append(st.Services, e.runners[s.name].stats())
	}
	for _, p := range e.cache.Plans() {
		pi := PlanInfo{
			Hash: p.Hash, Y: p.Y, N2: p.N2, Depth: p.Depth, Nodes: p.Nodes,
			Fallback: p.Fallback, CompileNS: p.CompileNS, Hits: p.Hits,
			Execs: p.Execs, WorkNS: p.WorkNS, CritPathNS: p.CritPathNS,
		}
		for _, b := range p.NodeBounds {
			pi.NodeBounds = append(pi.NodeBounds, PlanNodeBound{Bag: b.Bag, Labels: b.Labels, Internal: b.Internal})
		}
		st.Plans = append(st.Plans, pi)
	}
	return st
}
