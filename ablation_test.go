package repro

// Ablation benchmarks for the design choices called out in DESIGN.md §5:
// pipelined vs store-and-forward converge-cast, and exact vs heuristic
// internal-node-width minimization.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/flow"
	"repro/internal/ghd"
	"repro/internal/hypergraph"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// BenchmarkAblationConvergePipelining compares the pipelined per-item
// schedule (what the protocols use; N + depth rounds on a line) against
// the naive store-and-forward ConvergeTree (N × depth rounds): the gap
// is exactly why Examples 2.1–2.3 reach N+2 rather than 3N.
func BenchmarkAblationConvergePipelining(b *testing.B) {
	n := 256
	g := topology.Line(4)
	tree := &netsim.Tree{Root: 0, Edges: []int{0, 1, 2}}
	b.Run("store-and-forward", func(b *testing.B) {
		rounds := 0
		for i := 0; i < b.N; i++ {
			net, err := netsim.New(g, 8)
			if err != nil {
				b.Fatal(err)
			}
			// Whole N-item payload forwarded hop by hop.
			if _, err := net.ConvergeTree(tree, 0, n*8); err != nil {
				b.Fatal(err)
			}
			rounds = net.Rounds()
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("pipelined", func(b *testing.B) {
		rounds := 0
		for i := 0; i < b.N; i++ {
			net, err := netsim.New(g, 8)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := net.StreamItems([]int{3, 2, 1, 0}, 0, n, 8, nil); err != nil {
				b.Fatal(err)
			}
			rounds = net.Rounds()
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkAblationWidthExactVsHeuristic compares the exact y(H) search
// (ghd.Minimize: the heuristic, then the internal-node-set search when it
// can beat it) against the Construction 2.8 + MD-transform heuristic alone
// on random trees. The heuristic stays within the O(1) factor Appendix F
// needs; the exact search now costs a small constant factor more, not
// orders of magnitude.
func BenchmarkAblationWidthExactVsHeuristic(b *testing.B) {
	r := rand.New(rand.NewSource(91))
	trees := make([]*hypergraph.Hypergraph, 8)
	for i := range trees {
		n := 7
		h := hypergraph.New(n)
		for v := 1; v < n; v++ {
			h.AddEdge(r.Intn(v), v)
		}
		trees[i] = h
	}
	b.Run("exact", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			total = 0
			for _, h := range trees {
				g, err := ghd.Minimize(h) // heuristic + exact internal-node-set search
				if err != nil {
					b.Fatal(err)
				}
				total += g.InternalNodes()
			}
		}
		b.ReportMetric(float64(total), "sumY")
	})
	b.Run("heuristic", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			total = 0
			for _, h := range trees {
				g, err := ghd.Construct(h) // witness tree + MD flattening only
				if err != nil {
					b.Fatal(err)
				}
				total += g.InternalNodes()
			}
		}
		b.ReportMetric(float64(total), "sumY")
	})
}

// BenchmarkAblationSteinerPacking compares clique packings: the exact
// zigzag Hamiltonian decomposition vs what a single greedy star tree
// would provide (ST = 1), measured through the set-intersection bound
// N/ST + Δ.
func BenchmarkAblationSteinerPacking(b *testing.B) {
	n := 256
	for _, p := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("clique%d", p), func(b *testing.B) {
			g := topology.Clique(p)
			K := make([]int, p)
			for i := range K {
				K[i] = i
			}
			st := 0
			for i := 0; i < b.N; i++ {
				// Exact family packing (zigzag/Walecki decomposition).
				st = len(flow.PackSteinerTrees(g, K, g.N()))
			}
			b.ReportMetric(float64(st), "ST")
			b.ReportMetric(float64(n/st+p), "boundN/ST+Δ")
			b.ReportMetric(float64(n+2), "singleTreeBound")
		})
	}
}
