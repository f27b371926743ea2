package faqs

import (
	"fmt"
	"strings"

	"repro/internal/ghd"
	"repro/internal/plan"
	"repro/internal/service"
)

// ExplainNode is one GHD node of an explained plan, rendered with the
// query's own attribute names.
type ExplainNode struct {
	// Bag is χ(v) as attribute names.
	Bag []string `json:"bag"`
	// Labels is |λ(v)|: the number of hyperedges covering the bag (1 for
	// the label-covered nodes of a GYO-GHD, more for a fat core root).
	Labels int `json:"labels"`
	// Parent is the parent node index, -1 for the root.
	Parent int `json:"parent"`
	// Internal reports whether the node counts toward y(H).
	Internal bool `json:"internal"`
	// TupleBound is the node's worst-case output cardinality at the
	// query's N: N for label-covered nodes (eq. 24), N^|χ(v)| for a fat
	// core root.
	TupleBound float64 `json:"tuple_bound"`
}

// Explain reports how a query would be served, without executing it:
// the cache fingerprint and hit/miss, the canonical decomposition bound
// to the query's variable names, and the paper's structural bounds.
type Explain struct {
	Semiring string `json:"semiring"`
	// Fingerprint is the variable-renaming-invariant plan hash; two
	// queries with the same fingerprint share one compiled plan.
	Fingerprint string `json:"fingerprint"`
	// FingerprintExact is false when the canonical-labeling search ran
	// out of budget: the plan is still correct, but a renamed copy of
	// the query may fingerprint differently and compile its own
	// (counted in faq_plan_canon_inexact_total).
	FingerprintExact bool `json:"fingerprint_exact"`
	// CacheHit reports whether the plan was already resident (false on
	// the compile that Explain itself triggered).
	CacheHit bool `json:"cache_hit"`
	// Fallback marks shapes violating the paper's free-variable
	// restriction: no GHD pass can deliver the marginal, so Solve would
	// take the brute-force path (or reject, if disabled).
	Fallback bool `json:"fallback"`

	// Y is the internal-node-width y(H) of the chosen decomposition
	// (Definition 2.9), N2 the core size n₂(H) (Definition 3.1), Width
	// the hypertree width max_v |λ(v)| of the decomposition (1 iff the
	// query is acyclic), Depth the root-to-leaf height.
	Y     int `json:"y"`
	N2    int `json:"n2"`
	Width int `json:"width"`
	Depth int `json:"depth"`

	// N is the query's size parameter max_e |R_e|; EstimateBytes the
	// admission-control bound WithMemoryBudget compares against.
	N             int     `json:"n"`
	EstimateBytes float64 `json:"estimate_bytes"`
	// CompileNS is the plan's compile cost — what every later cache hit
	// saves.
	CompileNS int64 `json:"compile_ns"`

	// Nodes lists the decomposition nodes (empty for Fallback shapes);
	// Tree renders them as an ASCII tree rooted at the solve root.
	Nodes []ExplainNode `json:"nodes,omitempty"`
	Tree  string        `json:"tree,omitempty"`
}

// buildExplain renders the service layer's explain data (compiled plan,
// request-bound GHD, serving info) for the façade. g is nil for
// fallback shapes.
func buildExplain(q *Query, p *plan.Plan, g *ghd.GHD, info *service.Info) *Explain {
	ex := &Explain{
		Semiring:         q.sem.name,
		Fingerprint:      fmt.Sprintf("%016x", p.Hash),
		FingerprintExact: info.Exact,
		CacheHit:         info.CacheHit,
		Fallback:         p.Fallback,
		Y:                p.Y,
		N2:               p.N2,
		Depth:            p.Depth,
		N:                q.n,
		EstimateBytes:    p.EstimateBytes(q.n),
		CompileNS:        p.CompileNS,
	}
	if p.Fallback || g == nil {
		ex.Tree = "(no GHD plan: free variables outside every bag — brute-force fallback)"
		return ex
	}
	ex.Nodes = make([]ExplainNode, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		b := p.NodeBounds[v]
		if b.Labels > ex.Width {
			ex.Width = b.Labels
		}
		bag := make([]string, len(g.Bags[v]))
		for i, x := range g.Bags[v] {
			bag[i] = q.h.VertexName(x)
		}
		ex.Nodes[v] = ExplainNode{
			Bag:        bag,
			Labels:     b.Labels,
			Parent:     g.Parent[v],
			Internal:   b.Internal,
			TupleBound: b.TupleBound(q.n),
		}
	}
	ex.Tree = renderTree(g, ex.Nodes)
	return ex
}

// renderTree draws the rooted decomposition, one node per line:
//
//	[A B C] λ=3 ≤N^3
//	├── [C D] ≤N
//	│   └── [D E] ≤N
//	└── [B F] ≤N
func renderTree(g *ghd.GHD, nodes []ExplainNode) string {
	ch := g.Children()
	var sb strings.Builder
	var walk func(v int, prefix string, last bool, root bool)
	walk = func(v int, prefix string, last bool, root bool) {
		line := prefix
		childPrefix := prefix
		if !root {
			if last {
				line += "└── "
				childPrefix += "    "
			} else {
				line += "├── "
				childPrefix += "│   "
			}
		}
		n := nodes[v]
		line += "[" + strings.Join(n.Bag, " ") + "]"
		if n.Labels > 1 {
			line += fmt.Sprintf(" λ=%d ≤N^%d", n.Labels, len(n.Bag))
		} else {
			line += " ≤N"
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
		for i, c := range ch[v] {
			walk(c, childPrefix, i == len(ch[v])-1, false)
		}
	}
	walk(g.Root, "", true, true)
	return strings.TrimRight(sb.String(), "\n")
}
