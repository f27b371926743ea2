package protocol

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/topology"
)

// TestCountProductsThatWrapToZeroAgree pins one counting query whose
// products overflow int64: 2³²·2³² wraps to exactly 0, so a join drops
// the row although both factors list it. Counting is arithmetic mod
// 2⁶⁴, a commutative ring, so every evaluation order must land on the
// same answer: the GHD pass at 1, 2 and 8 workers, brute force, and the
// distributed protocol. Summed exactly, both groups exceed 2⁶⁴; mod 2⁶⁴
// A=0 sums to 0 (no row) and A=1 to 5·2³².
func TestCountProductsThatWrapToZeroAgree(t *testing.T) {
	s := semiring.Count{}
	h := hypergraph.PathGraph(4) // A–B, B–C, C–D
	type cell struct {
		x, y int
		v    int64
	}
	factor := func(edge []int, cells ...cell) *relation.Relation[int64] {
		b := relation.NewBuilder[int64](s, edge)
		for _, c := range cells {
			b.Add([]int{c.x, c.y}, c.v)
		}
		return b.Build()
	}
	q := &faq.Query[int64]{S: s, H: h, Free: []int{0}, DomSize: 2, Factors: []*relation.Relation[int64]{
		factor(h.Edge(0), cell{0, 0, 1 << 32}, cell{1, 0, 1}, cell{1, 1, 1 << 31}),
		factor(h.Edge(1), cell{0, 0, 1 << 32}, cell{0, 1, 1 << 32}, cell{1, 0, 2}),
		factor(h.Edge(2), cell{0, 0, 1}, cell{1, 0, 1 << 32}, cell{1, 1, 3}),
	}}
	want, err := faq.BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != 1 || want.Tuple(0)[0] != 1 || want.Value(0) != 5<<32 {
		t.Fatalf("brute force = %v, want only A=1 ↦ 5·2³²", want)
	}

	type answer struct {
		name string
		rel  *relation.Relation[int64]
	}
	var answers []answer
	g, err := faq.PlanGHD(h, q.Free)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		ans, _, err := faq.SolveGHD(context.Background(), q, g, faq.SolveOptions{Pool: exec.New(w)})
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, answer{fmt.Sprintf("SolveGHD/w%d", w), ans})
	}
	ans, _, err := Run(&Setup[int64]{Q: q, G: topology.Line(3), Assign: Assignment{0, 1, 2}, Output: 0})
	if err != nil {
		t.Fatal(err)
	}
	answers = append(answers, answer{"protocol.Run", ans})
	for _, a := range answers {
		if !relation.Equal(s, a.rel, want) {
			t.Errorf("%s disagrees with brute force: %v", a.name, a.rel)
		}
	}
}
