// Package core evaluates the closed-form upper and lower bound formulas
// of "Topology Dependent Bounds For FAQs" (Langberg, Li, Mani
// Jayaraman, Rudra; PODS 2019) — internal-node-width y(H), core size
// n₂(H), MinCut(G,K), Steiner packing and τ_MCF terms — so the rounds
// protocol.Run and protocol.RunTrivial measure on the synchronous
// simulator can be compared against theory.
package core

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/topology"
)

// Bounds packages the paper's structural parameters and round bounds for
// one (H, G, K, N) instance.
type Bounds struct {
	// Structural parameters of the query hypergraph.
	Y          int // internal-node-width y(H), Definition 2.9
	N2         int // n₂(H) = |V(C(H))| (0 for acyclic H), Definition 3.1
	Degeneracy int // d, Definition 3.3
	Arity      int // r
	// Parameters of the network.
	MinCut int // MinCut(G, K), Definition 3.6
	Delta  int // the Δ minimizing the Theorem 3.11 term
	ST     int // ST(G, K, Δ) at that Δ
	N      int // max factor size
	// Upper is the deterministic upper bound of Theorem 4.1/F.1:
	// y·(N·r/ST + Δ) + τ_MCF(G, K, n₂·d·N) rounds.
	Upper int
	// Lower is the randomized lower bound of Theorem 4.4/F.9 with
	// constants and polylogs dropped: for simple graphs
	// (y + n₂)·N / MinCut; for arity-r hypergraphs
	// (y/r + n₂/(d·r))·N / MinCut.
	Lower float64
	// LowerTilde divides Lower by the paper's Ω̃ log factors
	// log₂N · log₂MinCut · log₂n₂ (each at least 1).
	LowerTilde float64
}

// Gap returns Upper / LowerTilde, the measured counterpart of the
// paper's Table 1 gap column.
func (b *Bounds) Gap() float64 {
	if b.LowerTilde <= 0 {
		return 0
	}
	return float64(b.Upper) / b.LowerTilde
}

// ComputeBounds evaluates every formula for the instance. K is the
// player set; N the maximum factor size.
func ComputeBounds(h *hypergraph.Hypergraph, n int, g *topology.Graph, K []int) (*Bounds, error) {
	if len(K) == 0 {
		return nil, fmt.Errorf("core: empty player set")
	}
	b := &Bounds{
		Degeneracy: hypergraph.Degeneracy(h),
		Arity:      h.Arity(),
		N:          n,
	}
	gd, err := ghd.Minimize(h)
	if err != nil {
		return nil, err
	}
	b.Y = gd.InternalNodes()
	b.N2 = hypergraph.Decompose(h).N2()

	if len(K) == 1 {
		// Single player: everything is local.
		b.MinCut = 0
		return b, nil
	}
	b.MinCut, _, err = flow.MinCutSeparating(g, K)
	if err != nil {
		return nil, err
	}
	delta, trees, perStar, err := flow.BestDelta(g, K, n*b.Arity)
	if err != nil {
		return nil, err
	}
	b.Delta = delta
	b.ST = len(trees)
	b.Upper = b.Y * perStar
	if b.N2 > 0 {
		tau, _, err := flow.TauMCF(g, K, b.N2*b.Degeneracy*n)
		if err != nil {
			return nil, err
		}
		b.Upper += tau
	}
	if b.Arity <= 2 {
		b.Lower = float64((b.Y+b.N2)*n) / float64(b.MinCut)
	} else {
		d := float64(b.Degeneracy)
		r := float64(b.Arity)
		b.Lower = (float64(b.Y)/r + float64(b.N2)/(d*r)) * float64(n) / float64(b.MinCut)
	}
	b.LowerTilde = b.Lower / (logAtLeast1(n) * logAtLeast1(b.MinCut) * logAtLeast1(b.N2))
	return b, nil
}

func logAtLeast1(x int) float64 {
	l := 0.0
	for v := x; v > 1; v >>= 1 {
		l++
	}
	if l < 1 {
		return 1
	}
	return l
}
