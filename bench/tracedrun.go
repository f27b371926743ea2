package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// tracedSolve drives the traced run of the solve-style workloads. Every
// operation is executed twice: once whole, through the public entry
// point the untraced run uses, and once stage by stage (replay), each
// stage under its own span. The whole-op spans are the denominator of
// trace.coverage, the stage spans the per-layer self times.
type tracedSolve struct {
	ops  int
	seq  []int // operation k runs query seq[k mod len]
	warm []int // queries replayed once, unrecorded, so the replay's own plan cache is as warm as the engine's
	refs []*reference
	// whole runs query idx through the public path.
	whole func(ctx context.Context, idx int) (*answer, error)
	// parts replays query idx stage by stage under parent.
	parts func(ctx context.Context, rec *recorder, parent, op, idx int) (replayResult, error)
}

type tracedOutcome struct {
	sum                traceSummary
	attempted, failed  int
	untraced, traced   time.Duration // wall of the two passes
	allocBytes         uint64        // TotalAlloc over the untraced pass
	nodeMax, nodeTotal int64         // Σ over ops of max / total node cost
	wholeMS            []float64     // per-op whole latency
}

func (t *tracedSolve) run(ctx context.Context, rec *recorder) (*tracedOutcome, error) {
	out := &tracedOutcome{}
	check := func(idx int, got *answer, err error) {
		out.attempted++
		if err != nil || !t.refs[idx].matches(got) {
			out.failed++
		}
	}
	at := func(k int) int { return t.seq[k%len(t.seq)] }

	discard := newRecorder()
	for _, idx := range t.warm {
		if _, err := t.parts(ctx, discard, -1, -1, idx); err != nil {
			return nil, fmt.Errorf("warming the replay cache on query %d: %w", idx, err)
		}
	}
	runtime.GC()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t0 := time.Now()
	for k := 0; k < t.ops; k++ {
		idx := at(k)
		got, err := t.whole(ctx, idx)
		check(idx, got, err)
	}
	out.untraced = time.Since(t0)
	runtime.ReadMemStats(&ms)
	out.allocBytes = ms.TotalAlloc - alloc0

	t0 = time.Now()
	for k := 0; k < t.ops; k++ {
		idx := at(t.ops + k)
		s0 := time.Now()
		id := rec.begin("op", k, -1)
		got, err := t.whole(ctx, idx)
		rec.end(id)
		out.wholeMS = append(out.wholeMS, float64(time.Since(s0).Nanoseconds())/1e6)
		check(idx, got, err)

		id = rec.begin("replay", k, -1)
		rr, err := t.parts(ctx, rec, id, k, idx)
		rec.end(id)
		check(idx, rr.ans, err)
		if err != nil {
			continue
		}
		var mx, total int64
		for _, c := range rr.costs {
			total += c
			if c > mx {
				mx = c
			}
		}
		out.nodeMax += mx
		out.nodeTotal += total
		// The paper's size bound as a checked invariant: the root's
		// output may not exceed its plan.NodeBound.
		if float64(len(rr.ans.Tuples)) > rr.rootRows {
			out.failed++
		}
	}
	out.traced = time.Since(t0)
	out.sum = summarize(rec.snapshot())
	return out, nil
}

// common fills the metrics every solve-style workload reports from the
// trace: coverage, overhead, plan and GHD-pass stage costs, and the
// per-layer shares. extra maps layer → additional nanoseconds measured
// outside the span tree (the HTTP residual).
func (o *tracedOutcome) common(ops int, extra map[string]int64) map[string]float64 {
	m := map[string]float64{}
	n := float64(ops)
	perOpMS := func(name string) float64 { return float64(o.sum.byName[name]) / 1e6 / n }
	per := func(name string, scale float64) float64 {
		if c := o.sum.count[name]; c > 0 {
			return float64(o.sum.byName[name]) / scale / float64(c)
		}
		return 0
	}
	m["trace.coverage"] = float64(o.sum.partsNS) / float64(max(o.sum.wholeNS, 1))
	m["trace.overhead_ratio"] = o.untraced.Seconds() / o.traced.Seconds()
	m["faqs.overhead_ms_per_op"] = float64(o.sum.wholeNS-o.sum.partsNS) / 1e6 / n
	m["faqs.alloc_kb_per_op"] = float64(o.allocBytes) / 1024 / n
	m["plan.canonicalize_ms_per_op"] = perOpMS("plan.canonicalize")
	m["plan.cache_get_us_per_hit"] = per("plan.cache_get", 1e3)
	m["plan.compile_ms_per_miss"] = per("plan.compile", 1e6)
	m["plan.bind_ms_per_op"] = perOpMS("plan.bind")
	m["faq.solve_ghd_ms_per_op"] = perOpMS("faq.solve_ghd")
	if o.nodeTotal > 0 {
		m["faq.node_cost_max_share"] = float64(o.nodeMax) / float64(o.nodeTotal)
	}

	// Shares: the replayed parts by layer, plus what the whole op spent
	// outside them (façade and service glue: admission, metrics, result
	// conversion), plus anything measured outside the tree.
	layers := map[string]int64{}
	for l, ns := range o.sum.byLayer {
		layers[l] += ns
	}
	if over := o.sum.wholeNS - o.sum.partsNS; over > 0 {
		layers["faqs"] += over
	}
	for l, ns := range extra {
		if ns > 0 {
			layers[l] += ns
		}
	}
	var total int64
	for _, ns := range layers {
		total += ns
	}
	for _, l := range []string{"faqd", "faqs", "plan", "kernels", "delta", "cluster"} {
		m["share."+l] = float64(layers[l]) / float64(max(total, 1))
	}
	return m
}

// perRow is nanoseconds per input row, 0 when the kernel did not run.
func perRow(ns, rows int64) float64 {
	if rows == 0 {
		return 0
	}
	return float64(ns) / float64(rows)
}

func (k kernelTimes) metrics(m map[string]float64) {
	m["relation.build_ns_per_row"] = perRow(k.buildNS, k.buildRows)
	m["relation.join_merge_ns_per_row"] = perRow(k.joinMergeNS, k.joinMergeRows)
	m["relation.join_hash_ns_per_row"] = perRow(k.joinHashNS, k.joinHashRows)
	m["relation.semijoin_ns_per_row"] = perRow(k.semijoinNS, k.semijoinRows)
	m["relation.eliminate_ns_per_row"] = perRow(k.eliminateNS, k.eliminateRows)
	m["relation.project_ns_per_row"] = perRow(k.projectNS, k.projectRows)
}

// kernelsOf sums the relation kernel timings over up to four queries
// spread evenly across the pool, so every template contributes.
func kernelsOf(pool []internalQuery) (kernelTimes, error) {
	var total kernelTimes
	qs := pool
	if len(pool) > 4 {
		qs = nil
		for i := 0; i < 4; i++ {
			qs = append(qs, pool[i*len(pool)/4])
		}
	}
	for _, q := range qs {
		k, err := q.kernels()
		if err != nil {
			return total, err
		}
		total.add(k)
	}
	return total, nil
}
