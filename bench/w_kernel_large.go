package main

import (
	"context"
	"math/rand"
	"runtime"

	"repro/faqs"
	"repro/internal/exec"
	"repro/internal/plan"
)

// kernelLarge is the workload where the relation kernels and the exec
// scheduler do nearly all the work: 4 templates × {BCQ, count,
// sum-product marginal — the paper's two problems plus counting} × 2
// datasets, every factor above the 2^14 partitioned-kernel threshold.
// Plan and wire cost are noise here, so it is the bypass workload for
// any serving-path change and the target for any kernel or pool one.
type kernelLarge struct {
	cfg *config
	solvePool
}

func (w *kernelLarge) clients() int { return 1 }

func (w *kernelLarge) setUp(ctx context.Context) error {
	sz := w.cfg.sz
	rng := rand.New(rand.NewSource(w.cfg.seed ^ 0x6b65726e)) // "kern"
	w.solvePool = solvePool{brute: sz.brute}
	for _, tpl := range []string{"path7", "star6", "tree6", "tri-pendant"} {
		sh := templateShape(tpl)
		n, datasets := sz.kernelN, sz.kernelDatasets
		if tpl == "tri-pendant" {
			// Its bag join is quadratic in n/dom, so it runs smaller — and
			// gets one more dataset, which makes the pool's size odd: with
			// an even number of equally frequent queries the median latency
			// sits on the gap between two queries' costs and flips between
			// them from run to run.
			n, datasets = sz.kernelTriN, sz.kernelDatasets+1
		}
		dom := max(n/8, 2)
		for _, sem := range []string{"bool", "count", "sumproduct"} {
			qsh := sh
			if sem == "bool" {
				qsh.Free = nil // BCQ
			}
			for d := 0; d < datasets; d++ {
				w.specs = append(w.specs, fill(qsh, sem, n, dom, rng, false))
			}
		}
	}
	w.seq = rng.Perm(len(w.specs))
	if err := w.build(); err != nil {
		return err
	}
	w.engine = faqs.NewEngine(faqs.WithWorkers(engineWorkers))
	if err := w.warm(ctx, w.seq); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

func (w *kernelLarge) tearDown() { w.closeEngine() }

func (w *kernelLarge) traced(ctx context.Context, rec *recorder) (map[string]float64, int, int, error) {
	ops := min(w.cfg.sz.kernelTracedOps, 300)
	ts := &tracedSolve{
		ops: ops, seq: w.seq, warm: w.seq, refs: w.refs,
		whole: w.solve,
		parts: w.localParts(plan.NewCache(0), exec.New(engineWorkers)),
	}
	out, err := ts.run(ctx, rec)
	if err != nil {
		return nil, 0, 0, err
	}
	m := out.common(ops, nil)

	// exec: the same passes at width 1 and 2, wall clock; and the
	// measured width-2 wall against the schedule replay of the width-1
	// node costs. Each query's time is the median of three passes.
	var wall1, wall2, replay2 float64
	for _, q := range w.internals {
		g, err := q.planGHD()
		if err != nil {
			return nil, 0, 0, err
		}
		var t1, t2 []float64
		var costs []int64
		for r := 0; r < 3; r++ {
			ns, c, err := q.solveOn(g, 1)
			if err != nil {
				return nil, 0, 0, err
			}
			t1, costs = append(t1, float64(ns)), c
			if ns, _, err = q.solveOn(g, 2); err != nil {
				return nil, 0, 0, err
			}
			t2 = append(t2, float64(ns))
		}
		wall1 += median(t1)
		wall2 += median(t2)
		replay2 += float64(exec.Makespan(g.Parent, costs, 2))
	}
	m["exec.speedup_w2"] = wall1 / wall2
	m["exec.makespan_ratio"] = wall2 / replay2

	k, err := kernelsOf(w.internals)
	if err != nil {
		return nil, 0, 0, err
	}
	k.metrics(m)
	return m, out.attempted, out.failed, nil
}
