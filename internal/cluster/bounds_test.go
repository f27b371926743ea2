package cluster

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/faq"
	"repro/internal/semiring"
	"repro/internal/workload"
)

// TestPayloadBoundDominatesMeasured: the closed-form bound must cover
// the measured solve payload for every standing template at every fleet
// width.
func TestPayloadBoundDominatesMeasured(t *testing.T) {
	sc := semiring.Count{}
	gen := func(r *rand.Rand) int64 { return int64(1 + r.Intn(4)) }
	for _, tpl := range workload.Templates() {
		q, g := templateQuery(t, sc, tpl.Name, 11, gen)
		for _, w := range []int{1, 2, 8} {
			bound, err := PayloadBound(q, g, w)
			if err != nil {
				t.Fatalf("%s W=%d: %v", tpl.Name, w, err)
			}
			if bound <= 0 {
				t.Fatalf("%s W=%d: degenerate bound %d", tpl.Name, w, bound)
			}
			c := simClient(t, w)
			solver, err := NewSolver[int64](c, "count")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := solver.SolveGHD(context.Background(), q, g); err != nil {
				t.Fatalf("%s W=%d: %v", tpl.Name, w, err)
			}
			if st := c.Stats(); st.SolvePayloadBytes > bound {
				t.Fatalf("%s W=%d: measured solve payload %d exceeds closed-form bound %d",
					tpl.Name, w, st.SolvePayloadBytes, bound)
			}
		}
	}
}

// TestPayloadBoundNotDistributable: shapes SolveGHD rejects are
// rejected by the bound too, with the same sentinel.
func TestPayloadBoundNotDistributable(t *testing.T) {
	sc := semiring.Count{}
	q, g := templateQuery(t, sc, "path7", 5, func(r *rand.Rand) int64 { return 1 })
	q.VarOps = map[int]semiring.Op[int64]{1: semiring.AddOf[int64](sc)}
	if _, err := PayloadBound(q, g, 2); !errors.Is(err, faq.ErrNotDistributable) {
		t.Fatalf("PayloadBound on VarOps query: %v, want ErrNotDistributable", err)
	}
}
