// Package repro is a from-scratch Go reproduction of
//
//	Michael Langberg, Shi Li, Sai Vikneshwar Mani Jayaraman, Atri Rudra.
//	"Topology Dependent Bounds For FAQs". PODS 2019 (arXiv:2003.05575).
//
// The library implements the paper's full stack: semiring-annotated
// relations and FAQ queries (internal/semiring, internal/relation,
// internal/faq), the GYO/GHD machinery including the paper's new
// internal-node-width y(H) (internal/hypergraph, internal/ghd), the
// synchronous network model with per-edge round capacities
// (internal/topology, internal/flow, internal/netsim), the distributed
// protocols and bound formulas (internal/protocol, internal/core), the
// Matrix Chain Multiplication problem over F₂ with its min-entropy lower
// bound toolkit (internal/f2, internal/mcm, internal/entropy), the
// TRIBES lower-bound embeddings (internal/tribes), and the application
// layers (internal/pgm, internal/mpc, internal/workload).
//
// Every table, figure, and worked example of the paper is regenerated by
// `go run ./cmd/faqbench` (paper-claim vs measured tables, one catalogue
// in internal/experiments). Engine performance is measured by the one
// harness in bench/ (bench/README.md). See README.md.
//
// # Public library API (package faqs)
//
// The supported way to embed the system is the top-level faqs package —
// one façade over query building, planning, solving, and explain:
// NewSchema/NewRelationBuilder stream typed tuples in, the fluent
// QueryBuilder assembles FAQs (free variables, per-variable aggregate
// operators, a semiring chosen from the Bool/Count/SumProduct/MinPlus/
// MaxTimes/F2 registry), and Engine — constructed once with functional
// options (WithWorkers, WithPlanCache, WithMemoryBudget, WithDeadline,
// WithMaxInFlight) — serves Solve, Materialize, Explain, and
// SolveOnNetwork. Engines route through internal/plan + internal/service,
// so the library and the cmd/faqd daemon share one execution path, which
// ends in the single faq.SolveGHD ctx+options core. Explain surfaces the
// paper's bounds as planning output — the GHD tree, y(H)/n₂(H)/width/
// depth, and per-node output bounds (≤ N for label-covered nodes per
// eq. 24, N^|χ(v)| for the fat core root) — and the same bounds drive
// WithMemoryBudget's admission control (typed ErrOverBudget rejections
// before execution).
// cmd/ and examples/ programs import only this façade, enforced at
// build time by the facade analyzer (`make lint`; `go run ./cmd/faqlint
// -only facade ./...` runs just that analyzer); see README.md for a
// quickstart.
//
// # One bottom-up pass (faq.Pass)
//
// Theorem G.3's pass is planned once per solve. faq.NewPass derives,
// from a bound GHD and the free variables F, each node's factor edges,
// its children in join order, the postorder, and its keep set
// χ(v) ∩ (F ∪ χ(parent)); it is the only place F ⊆ χ(root) is checked
// (a wrapped faq.ErrFreeOutsideRoot). faq.EvalNode is the one node
// evaluator. Its meaning is a chain: start from the node's factor (the
// unit when factorless), join the children's relations in order,
// aggregate to the keep set. It runs as one of two walks, each with the
// chain's ⊕ order, so answers are bit-identical, floats included, and
// each passes the chain's relation.join, relation.build and
// relation.eliminate failpoints.
//
// A node with a factor is one walk over the factor (relation.EvalFused):
// each child message becomes a dense array over DomSize^arity,
// addressed by the row's cells, so each factor row is multiplied by its
// children's values in child order (a product that turns 0 drops the
// row, as Join drops it) and folded into its keep group. A keep set
// that is a schema prefix folds through one accumulator per eliminated
// variable, closed innermost first, and splits into blocks at keep-group
// boundaries on the pool; one with a single eliminated variable ahead of
// its last kept one folds into a dense accumulator over keep.
//
// A factorless node with two or more children, the fat core (the root
// of a cyclic query; EvalAt(…, nil, …) at the cluster coordinator and in
// the protocol's core phase), is walked attribute at a time
// (relation.EvalCore): the children's variables are bound in ascending
// id order over the messages as stored, each child's first column
// through an offset array over DomSize and later ones by galloping
// inside the bound range, so the work is bounded by the join's AGM
// bound rather than by the chain's intermediates, and nothing is
// sorted. Each leaf multiplies the children's values in child order;
// eliminated variables after the last kept one fold innermost first, and
// each one ahead of it folds into a dense accumulator over the kept
// variables after it, the accumulators nesting as EliminateVar's
// re-layouts do.
//
// A node takes the chain itself when it aggregates a variable with ⊗
// (VarOps), has a cell outside [0, DomSize) (read from the Builder's
// recorded range, else scanned: cluster workers never run Validate), or
// needs dense arrays over relation.FuseSpan·(rows in). A node with a
// factor also takes it when it has no child and nothing to eliminate
// (the chain hands the factor back as is), a child variable outside its
// factor, or more than one eliminated variable ahead of its last kept
// one; a factorless node also when it has fewer than two children, or
// a variable after the first that no child lists beside a smaller one
// (binding it would cross it with every binding before it).
//
// Four walkers run over that plan: the local forest pass (faq.SolveGHD
// via faq.Messages); the retaining pass of delta.Materialize and the
// root-path walks of its updates; the cluster's scatter/gather stars,
// whose plan adds only partition keys and whose workers run EvalNode on
// their rows; and the protocol runner, whose core phase evaluates a
// factorless node wherever it sits in the tree.
//
// # Relation-layer performance
//
// The relation algebra (internal/relation) is the inner loop of every
// protocol run: each GHD node of a Theorem 4.1 schedule performs
// Semijoin/Project/Join work per star reduction, so per-tuple constant
// factors multiply into end-to-end benchmark time. The kernel is
// columnar (one flat []int32 row buffer per relation) and exploits the
// sorted-tuple invariant: tuple keys of up to two columns are packed
// into order-preserving uint64s (internal/keys), Join/Semijoin run a
// galloping sorted-merge when the shared variables are a schema prefix
// of both operands, Project/EliminateVar reduce contiguous runs without
// maps when grouping by a schema prefix, and Builder batches row growth
// (NewBuilderHint presizes from known cardinalities). A standing view
// (internal/delta) commits a delta with MergeAdd into a small sorted
// tail beside each large base, folds the tail into the base once it
// outgrows √n, and carries its join indexes across the fold with
// RebaseIndex instead of re-sorting them. A view over an idempotent ⊕
// (MinPlus, MaxTimes) or a general FAQ recomputes only the groups a
// delta reaches: it restricts each node on the root path to those
// groups (Restrict, through the same indexes), re-runs the node task on
// the restriction, and stops at the first node where no group changed.
// Changed factor rows and groups go into a tail that overrides its
// base, folded in with MergeReplace past √n. The protocol
// engine's converge-cast streams key on the same packed integers. The
// micro-benchmarks in internal/relation/bench_test.go isolate these hot
// paths; bench/'s kernel_large workload measures them end to end.
//
// # Execution layer (internal/exec)
//
// Parallel execution is layered on internal/exec, a bounded worker-pool
// scheduler (GOMAXPROCS-defaulted, overridable via exec.SetWorkers,
// errgroup-style cancellation). Three layers use it:
//
//   - faq.SolveGHD dispatches sibling subtrees of the bottom-up
//     Theorem G.3 pass concurrently (exec.Pool.Forest orders children
//     before parents), joining each node only when its children's
//     messages resolved.
//   - One relation kernel splits into blocks once it touches ≥ 2^14
//     tuples and more than one worker is configured, and no other
//     intra-node work does: the fused GHD-node walk (EvalFused) cuts the
//     factor's rows on keep-group boundaries (binary-searched lower
//     bounds, so no group straddles a block). Each block writes its own
//     range of one output buffer sized up front, and the ranges are
//     packed in block order. The core walk (EvalCore), Join, Semijoin,
//     Project and EliminateVar run sequentially; a non-prefix Join
//     radix-sorts both operands on the key and walks them once. Every
//     Join orients its operands so that, when either one's variables all
//     precede the other's unshared ones, it is the probe side: its rows
//     then come out already sorted and unique, and the Builder is
//     skipped.
//     Builder.Build sorts sequentially: a stable LSD radix sort of
//     packed keys (arity ≤ 2), a comparison sort of wider rows. Both
//     yield the strict (key, input-index) order, whose sorted
//     permutation is unique.
//   - The protocol engine reduces star children (child messages) in
//     parallel and shards its per-factor flow.MaxFlow analyses
//     (RunTrivial and the cyclic-core phase) across the pool — MaxFlow
//     only reads the immutable topology — while every booking on the
//     netsim round ledger stays strictly sequential in factor order, so
//     measured rounds/bits are byte-identical at every worker count.
//
// The scheduler contract is that parallelism is configuration, not
// semantics: all parallel paths are bit-identical to sequential
// execution and race-clean (`make race`, CI). Bit-identity holds
// because the block split preserves the sequential generation order —
// blocks are contiguous ranges of the sequential sequence, block
// outputs are packed in block order, and every group reaches ⊕ in
// exactly the sequential sequence. The randomized
// equivalence harness (internal/relation/prop_test.go and the protocol
// worker-sweep tests) pins this across semirings, worker counts, and
// adversarial key distributions; `make test-workers` re-runs the suites
// with the pool pinned at 1/2/8 workers (FAQ_WORKERS).
//
// For accounting, exec.ForestTimed records each node task's wall clock
// and exec.Makespan replays those costs under a simulated worker
// budget — the same simulated-ledger methodology netsim uses for
// communication rounds (bench/ reports it as exec.makespan_ratio).
//
// # Plan cache and query service (internal/plan, internal/service, cmd/faqd)
//
// Serving layers turn the library into a server: planning — GYO
// decomposition, the width-minimized GHD search, re-rooting for the free
// variables (faq.PlanGHD, also the planning step of protocol.Run) — is
// data-independent and far more expensive than executing a single small
// request, so it compiles once per query *shape* and is reused across
// every request sharing it.
//
//   - internal/plan fingerprints a shape up to variable renaming
//     (Weisfeiler–Leman refinement over the incidence structure, then
//     an exact individualization search that expands one vertex per
//     automorphism orbit, so a k-leaf star costs k nodes, not k!; free
//     variables and aggregate operators seed the colors), compiles a
//     Plan — the canonical GHD, root choice, internal-node-width y(H),
//     core size n₂(H), per-node bag bounds, and measured per-node
//     costs from prior runs — and caches plans in a
//     concurrent LRU with singleflight compilation (N concurrent
//     requests for one shape compile once). Binding a plan to a request
//     is an O(plan) ghd.Relabel, validated so a fingerprint collision
//     surfaces as an error rather than a wrong execution.
//   - internal/service admits requests, binds cached plans to fresh
//     factor data, and executes a timed faq.SolveGHD on the shared exec
//     pool with per-request cancellation (exec.Pool.ForestCtx gates
//     every node task on ctx). Solve, Materialize and Update share one
//     resilience envelope (gate, deadline, panic containment). Shapes
//     violating the paper's free-variable restriction fall back to
//     faq.BruteForce (the fallback plan is itself cached).
//   - cmd/faqd serves /solve and /stats over HTTP/JSON (one service per
//     semiring over one shared cache). Its loopback test drives the real
//     handler over a socket with a worker fleet behind it; bench/'s
//     serve_http and plan_churn workloads measure it.
//
// Answer contract: a served answer is exactly faq.SolveGHD(ctx, q, g, opts) for
// the bound plan g. Exact semirings (Bool, Count, F2) are bit-identical
// to per-request planning at every worker count; float semirings are
// equal modulo the semiring's re-association tolerance — the same
// allowance the distributed protocols need.
//
// # Static analysis (internal/lint, cmd/faqlint)
//
// The standing contracts above are machine-checked: faqlint (`make
// lint`, in `make check` and CI) runs six repo-specific analyzers and
// fails the build on any unsuppressed finding. facade pins the
// public-API contract (cmd/ and examples/ reach the repo only through
// the faqs façade); nopanic pins "typed errors, never panics" (panics
// only at the failpoint/exec containment sites and Must* constructors);
// mapiter pins bit-identical outputs (no raw map iteration in
// protocol/netsim/plan/exec without collect-then-sort); ctxflow pins
// cancellation propagation on the serving path (no fresh
// context.Background/TODO or nil ctx mid-path); hotpath pins the
// allocation discipline of the relation kernels and of the protocol and
// shard layers that match rows with them (no string-keyed state);
// failpoint pins chaos-sweep
// coverage (unique <pkg>.<site> literals, every site referenced by a
// TestChaos* suite, arming tests named TestChaos*). Intentional
// exceptions are annotated in source with //faqlint:allow
// <analyzer>(<reason>) — the reason is mandatory, and a stale pragma is
// itself a finding. See README.md's "Static analysis" section and
// package repro/internal/lint.
package repro
