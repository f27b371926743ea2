// Package faqs is the public embedded-library API of the repository: one
// façade over query building, planning, solving, and explain for the
// Functional Aggregate Queries of "Topology Dependent Bounds For FAQs"
// (Langberg, Li, Mani Jayaraman, Rudra; PODS 2019). It is the single
// supported way to use the system as a library — cmd/faqd, cmd/faqrun,
// and every examples/ program are clients of this package, so the
// library and the daemon share one execution path through the internal
// plan cache and service layer.
//
// # Building queries
//
// Relations stream in through typed builders and queries assemble
// fluently:
//
//	sch, _ := faqs.NewSchema("A", "B")
//	rb := faqs.NewRelationBuilder(sch)
//	rb.Add(1, 2).Add(3, 4)            // Boolean tuples (value 1)
//	rel, _ := rb.Relation()
//
//	q, err := faqs.NewQuery(faqs.Count).
//		Factor(rel).
//		Free("A").
//		Domain(64).
//		Build()
//
// The semiring comes from a registry — Bool, Count, SumProduct, MinPlus,
// MaxTimes, F2 — and bound variables may override their aggregate
// operator per the paper's general FAQ form (AggProduct everywhere;
// AggMax over SumProduct, whose identities it shares).
//
// # Solving and explaining
//
// An Engine is constructed once with functional options and serves many
// queries; plans compile once per variable-renaming-invariant query
// shape and are cached:
//
//	e := faqs.NewEngine(
//		faqs.WithPlanCache(256),
//		faqs.WithMemoryBudget(1<<30),
//	)
//	res, err := e.Solve(ctx, q)       // answer + plan fingerprint + timings
//	ex,  err := e.Explain(q)          // GHD tree, y(H)/n₂(H)/width/depth,
//	                                  // per-node bounds, cache hit/miss
//
// Explain surfaces the paper's topology-dependent bounds as user-facing
// planning output: the decomposition's internal-node-width y(H)
// (Definition 2.9), core size n₂(H) (Definition 3.1), and per-node
// output bounds (≤ N tuples for label-covered nodes per eq. 24, N^|χ(v)|
// for the fat core root). The same bounds drive admission control:
// WithMemoryBudget rejects requests whose structural estimate exceeds
// the budget with an error matching ErrOverBudget — before any
// execution work.
//
// # Answer contract
//
// Engine.Solve is exactly the solver contract of the internal layers: a
// served answer equals faq.SolveGHD on the bound cached plan, which
// for exact semirings (Bool, Count, F2) is bit-identical to per-request
// planning at every worker count; float semirings agree modulo the
// semiring's re-association tolerance. Values cross the façade as
// float64 (exact for Bool/F2 and for Count within 2^53).
//
// # Incremental maintenance
//
// Engine.Materialize builds a standing view of a query: the engine
// retains every GHD node's message relation and Materialized.Update
// re-answers insert/delete tuple batches by propagating semiring
// deltas up only the affected path — exact ⊕-deltas for Count,
// SumProduct, and F2, support counting for Bool, and a documented
// group recompute fallback for the idempotent semirings and general
// FAQs (Strategy names which one is in use; Stats counts updates and
// delta_fallbacks). Updates are atomic: on any error the view is
// unchanged and remains usable. cmd/faqd serves the same handles as
// named views through POST /materialize and /update.
//
// # Distributed execution
//
// SolveOnNetwork runs the paper's distributed protocols on a synchronous
// network topology (Line, Clique, Star, Ring, Grid) and reports measured
// rounds and bits next to the closed-form upper and lower bounds, so the
// examples can reproduce the paper's tables through the public API.
//
// # Observability
//
// Every engine is instrumented by default. Engine.WriteMetrics writes
// one Prometheus text-exposition document (MetricsContentType):
// per-semiring request/outcome counters and latency histograms, the
// process-wide plan-cache / exec-pool / failpoint / delta families,
// and Go runtime gauges. Caller-owned families registered on
// Engine.Metrics ride the same document. Sampling is one atomic add
// on a pre-bound handle — zero allocations on the solve hot path —
// so there is no off switch.
//
// The engine also keeps a bounded ring of per-request traces
// (Engine.RecentTraces): canonicalize → cache → admission → bind →
// exec phase spans plus one measured span per GHD node. The per-node
// durations fold back into the cached plan, so a shape's second solve
// already carries real measurements for /stats and schedule replay.
// cmd/faqd exposes all of it as GET /metrics and GET /debug/trace.
package faqs
