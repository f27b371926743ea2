package protocol

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/hypergraph"
	"repro/internal/keys"
	"repro/internal/netsim"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/topology"
)

// SetIntersectionInput configures the distributed multiparty set
// intersection of Theorem 3.11: player u ∈ K holds Sets[u] ⊆ [0, Universe)
// and the designated Output player must learn ∩_u Sets[u].
type SetIntersectionInput struct {
	G        *topology.Graph
	Sets     map[int][]int
	Output   int
	Universe int
	// ItemBits is the channel cost of one element (≤ BitsPerRound);
	// both default to ⌈log₂ Universe⌉ — one element per edge per round,
	// the normalization of Theorem 3.11.
	ItemBits     int
	BitsPerRound int
}

// SetIntersection runs the Theorem 3.11 protocol: pack edge-disjoint
// Steiner trees of bounded diameter (Definition 3.9), split the element
// universe across the trees (as Example 2.3 splits Dom(A) across the
// paths W₁ and W₂), and converge-cast each chunk toward the output with
// per-node filtering. The round count achieves
// O(min_Δ (N/ST(G,K,Δ) + Δ)).
func SetIntersection(in *SetIntersectionInput) ([]int, Report, error) {
	rep := Report{Protocol: "set-intersection"}
	if len(in.Sets) == 0 {
		return nil, rep, fmt.Errorf("protocol: no players")
	}
	// Iterate players in sorted order so validation surfaces the same
	// error on every run (faqlint:mapiter — raw map order here made the
	// first-reported violation nondeterministic).
	K := sortedKeys(in.Sets)
	maxSet := 0
	for _, u := range K {
		s := in.Sets[u]
		if u < 0 || u >= in.G.N() {
			return nil, rep, fmt.Errorf("protocol: player %d out of range", u)
		}
		if len(s) > maxSet {
			maxSet = len(s)
		}
		for _, x := range s {
			if x < 0 || x >= in.Universe {
				return nil, rep, fmt.Errorf("protocol: element %d outside universe [0,%d)", x, in.Universe)
			}
		}
	}
	K = topology.SortedUnique(append(K, in.Output))
	itemBits := in.ItemBits
	if itemBits == 0 {
		u := in.Universe
		if u < 2 {
			u = 2
		}
		itemBits = keys.Bits(u - 1)
	}
	bpr := in.BitsPerRound
	if bpr == 0 {
		bpr = itemBits
	}
	net, err := netsim.New(in.G, bpr)
	if err != nil {
		return nil, rep, err
	}

	// Single-player case: the output already knows everything.
	if len(K) == 1 {
		res := intersectLocal(in.Sets, K)
		return res, rep, nil
	}

	_, packing, _, err := flow.BestDelta(in.G, K, maxSet)
	if err != nil {
		return nil, rep, err
	}
	// Each set is a one-column Boolean relation; duplicates merge.
	players := make(map[int]*relation.Relation[bool], len(in.Sets))
	for _, u := range sortedKeys(in.Sets) {
		b := relation.NewBuilderHint(semiring.Bool{}, []int{0}, len(in.Sets[u]))
		for _, x := range in.Sets[u] {
			b.AddRow([]int32{int32(x)}, true)
		}
		players[u] = b.Build()
	}
	starts := make([]int, len(packing))
	out, _, err := convergeOverPacking(net, semiring.Bool{}, players, in.Output, packing, starts, itemBits)
	if err != nil {
		return nil, rep, err
	}
	var result []int
	for i := 0; i < out.Len(); i++ {
		result = append(result, int(out.Tuple(i)[0]))
	}
	rep.Rounds = net.Rounds()
	rep.Bits = net.TotalBits()
	RecordReport(rep)
	return result, rep, nil
}

// intersectLocal computes the intersection of the players' sets by a
// sort-based merge: each set is sorted and deduplicated once, then
// folded through a linear sorted-set intersection.
func intersectLocal(sets map[int][]int, K []int) []int {
	var out []int
	first := true
	for _, u := range K {
		s, ok := sets[u]
		if !ok {
			continue // a player without a set does not constrain the result
		}
		uniq := topology.SortedUnique(append([]int(nil), s...))
		if first {
			out, first = uniq, false
		} else {
			out = hypergraph.IntersectSorted(out, uniq)
		}
	}
	return out
}
