// Cyclic queries through the public API: a triangle core with a pendant
// path exercises both phases of the paper's machinery. Explain shows the
// fat core root the GYO elimination leaves behind (bag bound N^|χ(root)|),
// admission control rejects the core when the engine's memory
// budget is too small, the distributed run reduces the pendant forest
// with star protocols before finishing the core trivially (Lemma 4.2),
// and a free-variable set no bag covers takes the brute-force fallback,
// which the same budget prices — and rejects — at N^|V|.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"

	"repro/faqs"
)

const (
	N   = 64
	dom = 64
)

// randomRelation builds N random Boolean tuples over the given schema.
func randomRelation(r *rand.Rand, attrs ...string) *faqs.Relation {
	rb := faqs.NewRelationBuilder(faqs.MustSchema(attrs...))
	for i := 0; i < N; i++ {
		rb.Add(r.Intn(dom), r.Intn(dom))
	}
	rel, err := rb.Relation()
	if err != nil {
		log.Fatal(err)
	}
	return rel
}

// build assembles the triangle A-B-C plus pendant path C-D-E over the
// Bool semiring with the given free variables.
func build(r *rand.Rand, free ...string) *faqs.QueryBuilder {
	return faqs.NewQuery(faqs.Bool).
		Factor(randomRelation(r, "A", "B")).
		Factor(randomRelation(r, "B", "C")).
		Factor(randomRelation(r, "A", "C")).
		Factor(randomRelation(r, "C", "D")).
		Factor(randomRelation(r, "D", "E")).
		Free(free...).
		Domain(dom)
}

func main() {
	q, err := build(rand.New(rand.NewSource(5))).Build()
	if err != nil {
		log.Fatal(err)
	}

	eng := faqs.NewEngine()
	ex, err := eng.Explain(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %s\n", q)
	fmt.Printf("explain: y=%d n2=%d width=%d depth=%d, bound ≈%.3g bytes\n",
		ex.Y, ex.N2, ex.Width, ex.Depth, ex.EstimateBytes)
	fmt.Println(ex.Tree)

	// The N^4 core bound is exactly what admission control reads: a
	// 64 KiB budget rejects this query before execution, a generous one
	// admits it.
	tight := faqs.NewEngine(faqs.WithMemoryBudget(64 << 10))
	if _, err := tight.Solve(context.Background(), q); errors.Is(err, faqs.ErrOverBudget) {
		fmt.Printf("64 KiB budget : rejected before execution\n")
	} else {
		log.Fatalf("expected an over-budget rejection, got %v", err)
	}
	res, err := eng.Solve(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	v, _ := res.Scalar()
	fmt.Printf("unbounded     : BCQ answer %v (exec %.2f ms)\n", v != 0, float64(res.Stats.ExecNS)/1e6)

	// Distributed on a 5-ring: pendant stars bottom-up, then the cyclic
	// core via the trivial protocol (Lemma 3.1).
	ring, err := faqs.Ring(5)
	if err != nil {
		log.Fatal(err)
	}
	nr, err := eng.SolveOnNetwork(q, ring, []int{0, 1, 2, 3, 4}, 0)
	if err != nil {
		log.Fatal(err)
	}
	b := nr.Bounds
	fmt.Printf("on a 5-ring   : %d rounds (%d bits); trivial %d rounds\n", nr.Rounds, nr.Bits, nr.TrivialRounds)
	fmt.Printf("bounds        : y=%d n2=%d d=%d  UB=%d LB~=%.1f gap=%.2f\n",
		b.Y, b.N2, b.Degeneracy, b.Upper, b.LowerTilde, b.Gap())

	// Free variables {A, E} sit in no single bag, so the GHD pass cannot
	// deliver the marginal and the engine falls back to brute force over
	// all five variables. The budget prices that at N^5: a 1 GiB budget
	// admits the core query but rejects the fallback before execution.
	qf, err := build(rand.New(rand.NewSource(5)), "A", "E").Build()
	if err != nil {
		log.Fatal(err)
	}
	resF, err := eng.Solve(context.Background(), qf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("free {A,E}    : %d rows via brute-force fallback (fallback=%v)\n", resF.Len(), resF.Fallback)
	roomy := faqs.NewEngine(faqs.WithMemoryBudget(1 << 30))
	if _, err := roomy.Solve(context.Background(), q); err != nil {
		log.Fatal(err)
	}
	if _, err := roomy.Solve(context.Background(), qf); errors.Is(err, faqs.ErrOverBudget) {
		fmt.Printf("1 GiB budget  : admits the core, rejects the fallback before execution\n")
	} else {
		log.Fatalf("expected an over-budget rejection of the fallback, got %v", err)
	}
}
