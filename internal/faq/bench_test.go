package faq

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/semiring"
)

// BenchmarkEvalNode times one GHD node both ways: EvalNode's walk and
// the Join + AggregateOut chain it replaces, called directly. The path
// and star nodes are kernel_large-sized (28 672 factor rows over a
// domain of 3 584, eight rows per value) and take the fused walk:
//
//   - path: factor (A, B), one child keyed on B, the factor's second
//     column, keeping A;
//   - star: factor (A, B), five children keyed on A, keeping A.
//
// The tri-root nodes are factorless and take the core walk: four
// messages on (A, B), (A, C), (B, C) and (C, D), keeping {C} or
// nothing. At kernel_large's tri-pendant size each message has about
// 7 140 rows over a domain of 896; at plan_churn's tri+k size, about
// 256 rows over 256.
func BenchmarkEvalNode(b *testing.B) {
	const n, dom = 28672, 3584
	s := semiring.Count{}
	rng := rand.New(rand.NewSource(1))
	gen := func(*rand.Rand) int64 { return int64(1 + rng.Intn(3)) }
	factor := randRel[int64](s, rng, []int{0, 1}, dom, float64(n)/(dom*dom), gen)
	msg := func(v int) *relation.Relation[int64] { return randRel[int64](s, rng, []int{v}, dom, 0.9, gen) }
	tri := func(n, dom int) []*relation.Relation[int64] {
		var out []*relation.Relation[int64]
		for _, e := range [][]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}} {
			out = append(out, randRel[int64](s, rng, e, dom, float64(n)/float64(dom*dom), gen))
		}
		return out
	}
	large, small := tri(7140, 896), tri(256, 256)
	nodes := []struct {
		name string
		c    nodeCase[int64]
	}{
		{"path/fused", nodeCase[int64]{factor: factor, children: []*relation.Relation[int64]{msg(1)}, keep: []int{0}, dom: dom}},
		{"star/fused", nodeCase[int64]{factor: factor, children: []*relation.Relation[int64]{msg(0), msg(0), msg(0), msg(0), msg(0)},
			keep: []int{0}, dom: dom}},
		{"tri-root-896-keepC/core", nodeCase[int64]{children: large, keep: []int{2}, dom: 896}},
		{"tri-root-896-keep0/core", nodeCase[int64]{children: large, dom: 896}},
		{"tri-root-256-keepC/core", nodeCase[int64]{children: small, keep: []int{2}, dom: 256}},
		{"tri-root-256-keep0/core", nodeCase[int64]{children: small, dom: 256}},
	}
	for _, nd := range nodes {
		c := nd.c
		q := &Query[int64]{S: s, DomSize: c.dom}
		b.Run(nd.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := EvalNode(q, c.factor, c.children, c.keep); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(strings.Split(nd.name, "/")[0]+"/chain", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := chainNode(q, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
