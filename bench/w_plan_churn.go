package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"repro/faqs"
	"repro/internal/exec"
	"repro/internal/plan"
)

// planChurn uses the plan layer the way serve_http does not: the shape
// working set is four times the cache, so misses, evictions and
// plan.Compile (ghd.Minimize) dominate. One client, so hit, miss and
// eviction counts repeat exactly.
type planChurn struct {
	cfg *config
	solvePool
}

func (w *planChurn) clients() int { return 1 }

func (w *planChurn) setUp(ctx context.Context) error {
	sz := w.cfg.sz
	// The shape pool, its popularity order and the operation sequence do
	// not depend on the seed: they are the workload. Compile cost differs
	// fifty-fold between a 7-edge tree and its neighbours, so which
	// compiles land in a run decides its numbers, and runs made with
	// different seeds must be comparable. The seed decides every query's
	// renaming (which canonicalization must undo) and its data.
	fixed := rand.New(rand.NewSource(0x706c616e)) // "plan"
	shapes, err := stratifiedShapes(fixed, sz.churnShapes)
	if err != nil {
		return err
	}
	seq := zipfSequence(fixed, len(shapes), sz.churnSeq)
	rng := rand.New(rand.NewSource(w.cfg.seed ^ 0x706c616e))
	w.solvePool = solvePool{brute: sz.brute, seq: seq}
	for i, sh := range shapes {
		w.specs = append(w.specs, fill(rename(sh, rng, fmt.Sprintf("q%d_", i)), "count", sz.churnN, sz.churnDom, rng, false))
	}
	if err := w.build(); err != nil {
		return err
	}
	w.engine = faqs.NewEngine(faqs.WithPlanCache(sz.churnCache), faqs.WithWorkers(engineWorkers))
	// Warm-up: the tail of the sequence, so the cache holds what a
	// long-running engine's would when the timed walk starts at op 0.
	if err := w.warm(ctx, w.warmSeq()); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

func (w *planChurn) warmSeq() []int { return w.seq[len(w.seq)-w.cfg.sz.churnWarm:] }

func (w *planChurn) tearDown() { w.closeEngine() }

func (w *planChurn) traced(ctx context.Context, rec *recorder) (map[string]float64, int, int, error) {
	ops := min(w.cfg.sz.tracedOps, 300)
	// The replay's own cache must have seen what the engine's has when
	// the traced pass starts: the warm-up and the untraced pass.
	warm := append(append([]int(nil), w.warmSeq()...), w.seq[:min(ops, len(w.seq))]...)
	ts := &tracedSolve{
		ops: ops, seq: w.seq, warm: warm, refs: w.refs,
		whole: w.solve,
		parts: w.localParts(plan.NewCache(w.cfg.sz.churnCache), exec.New(engineWorkers)),
	}
	before := w.engine.Stats().Cache
	out, err := ts.run(ctx, rec)
	if err != nil {
		return nil, 0, 0, err
	}
	after := w.engine.Stats().Cache
	m := out.common(ops, nil)
	// The engine's own counters over both passes (2·ops whole solves,
	// one client): exact counts.
	m["plan.cache_hit_ratio"] = float64(after.Hits-before.Hits) / float64(2*ops)
	m["plan.cache_evictions"] = float64(after.Evictions - before.Evictions)
	m["plan.compiles"] = float64(after.Compiles - before.Compiles)
	k, err := kernelsOf(w.internals)
	if err != nil {
		return nil, 0, 0, err
	}
	k.metrics(m)
	return m, out.attempted, out.failed, nil
}
