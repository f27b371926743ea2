package faqs

import (
	"math/rand"
	"testing"
)

// TestSolveOnNetworkCoreBelowRoot runs the distributed protocol through
// the façade on a triangle with a three-edge pendant path whose far end
// is the only free variable: planning roots the GHD at the path's end,
// so the cyclic core sits below the root. The answer must equal
// per-request faq.Solve exactly.
func TestSolveOnNetworkCoreBelowRoot(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	qb := NewQuery(Count).Domain(4).Free("X5")
	for _, e := range [][2]string{{"X0", "X1"}, {"X1", "X2"}, {"X0", "X2"}, {"X2", "X3"}, {"X3", "X4"}, {"X4", "X5"}} {
		rb := NewRelationBuilder(MustSchema(e[0], e[1]))
		for i := 0; i < 12; i++ {
			rb.AddValued(float64(1+r.Intn(3)), r.Intn(4), r.Intn(4))
		}
		rel, err := rb.Relation()
		if err != nil {
			t.Fatal(err)
		}
		qb.Factor(rel)
	}
	q, err := qb.Build()
	if err != nil {
		t.Fatal(err)
	}
	line, err := Line(4)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewEngine().SolveOnNetwork(q, line, []int{0, 1, 2, 3, 0, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSolve(t, q)
	if want.Len() == 0 {
		t.Fatal("precondition: the reference answer is empty")
	}
	if err := sameAnswer(run.Answer, want, true); err != nil {
		t.Fatalf("SolveOnNetwork vs faq.Solve: %v", err)
	}
}
