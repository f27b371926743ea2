package cluster

import (
	"repro/internal/faq"
	"repro/internal/ghd"
	"repro/internal/shard"
)

// PayloadBound returns the closed-form upper bound on the encoded
// relation bytes one SolveGHD of q over g moves through a fleet of the
// given size — the quantity Stats.SolvePayloadBytes measures. It is
// derived statically from the distribution plan:
//
// Every factor node v exchanges its message with schema keep[v] (the
// bag variables surviving v's aggregation) in one gather — W partial
// messages, worker w's rows being the distinct keep[v]-projections of
// its factor shard, so at most min(|R_v|, W·|D|^|keep[v]|) rows in
// total (a projection deduplicates per worker, not globally) — and,
// when its parent is also a factor node, one scatter re-slicing the
// merged (globally deduplicated) message across the parent's workers,
// at most min(|R_v|, |D|^|keep[v]|) rows. Each row costs
// shard.RowWireBytes(|keep[v]|) bytes, plus W per-slice schema headers
// per hop. Factorless nodes (the fat core root of Construction 2.8)
// join at the coordinator and move no frames of their own; their
// children pay the gather hop only.
//
// Shapes the coordinator cannot distribute return the same wrapped
// faq.ErrNotDistributable that SolveGHD would.
func PayloadBound[T any](q *faq.Query[T], g *ghd.GHD, workers int) (int64, error) {
	p, err := planStars(q, g)
	if err != nil {
		return 0, err
	}
	W := int64(workers)
	var bound int64
	for v, es := range p.Edges {
		if len(es) == 0 {
			continue // computed at the coordinator: no frames
		}
		k := len(p.Keep[v])
		rwb, hdr := int64(shard.RowWireBytes(k)), int64(shard.EncodedBytes(k, 0))
		gatherRows := int64(q.Factors[es[0]].Len())
		scatterRows := gatherRows
		if cap, ok := domPow(q.DomSize, k); ok {
			if W*cap < gatherRows {
				gatherRows = W * cap
			}
			if cap < scatterRows {
				scatterRows = cap
			}
		}
		// The gather producing msgs[v].
		bound += W*hdr + gatherRows*rwb
		if v != p.Root && len(p.Edges[p.Parent[v]]) != 0 {
			// The scatter routing msgs[v] to the parent's workers.
			bound += W*hdr + scatterRows*rwb
		}
	}
	return bound, nil
}

// domPow returns dom^k, reporting false once the product can no longer
// tighten any realistic row count (guarding overflow).
func domPow(dom, k int) (int64, bool) {
	if dom <= 0 {
		return 0, false
	}
	p := int64(1)
	for i := 0; i < k; i++ {
		if p > 1<<40 {
			return 0, false
		}
		p *= int64(dom)
	}
	return p, true
}
