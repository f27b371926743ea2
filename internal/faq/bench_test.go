package faq

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/semiring"
)

// BenchmarkEvalNode times one GHD node both ways: EvalNode's fused walk
// and the Join + AggregateOut chain it replaces, called directly. Both
// nodes are kernel_large-sized (28 672 factor rows over a domain of
// 3 584, eight rows per value):
//
//   - path: factor (A, B), one child keyed on B, the factor's second
//     column, keeping A;
//   - star: factor (A, B), five children keyed on A, keeping A.
func BenchmarkEvalNode(b *testing.B) {
	const n, dom = 28672, 3584
	s := semiring.Count{}
	rng := rand.New(rand.NewSource(1))
	gen := func(*rand.Rand) int64 { return int64(1 + rng.Intn(3)) }
	factor := randRel[int64](s, rng, []int{0, 1}, dom, float64(n)/(dom*dom), gen)
	msg := func(v int) *relation.Relation[int64] { return randRel[int64](s, rng, []int{v}, dom, 0.9, gen) }
	q := &Query[int64]{S: s, DomSize: dom}
	nodes := []struct {
		name     string
		children []*relation.Relation[int64]
	}{
		{"path", []*relation.Relation[int64]{msg(1)}},
		{"star", []*relation.Relation[int64]{msg(0), msg(0), msg(0), msg(0), msg(0)}},
	}
	for _, nd := range nodes {
		c := nodeCase[int64]{factor: factor, children: nd.children, keep: []int{0}}
		b.Run(nd.name+"/fused", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := EvalNode(q, c.factor, c.children, c.keep); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(nd.name+"/chain", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := chainNode(q, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
