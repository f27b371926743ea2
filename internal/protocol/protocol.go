// Package protocol implements the paper's distributed FAQ protocols on
// the synchronous network simulator:
//
//   - the trivial protocol that routes every relation to one player
//     (Lemma 3.1, cost τ_MCF);
//   - distributed set intersection / keyed aggregation over edge-disjoint
//     Steiner-tree packings (Theorem 3.11), pipelined so that a line
//     reproduces the N+2 rounds of Examples 2.1–2.2 and a clique the
//     N/2+2 rounds of Example 2.3;
//   - the star protocol (Algorithms 1–3), in a fast path for stars whose
//     leaves share a common key set with the center and a general
//     broadcast+converge path otherwise;
//   - the forest protocol (Lemmas 4.1/F.1) processing GYO-GHD stars
//     bottom-up, and the d-degenerate protocol (Lemmas 4.2/F.2) that
//     finishes the cyclic core with the trivial protocol.
//
// Every protocol returns both the answer (so tests can check it against
// the centralized solvers) and the exact round/bit cost of its schedule.
package protocol

import (
	"fmt"
	"math/bits"

	"repro/internal/faq"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// Assignment maps each hyperedge (input function) of the query to the
// player node of G that initially holds it (Model 2.1: every function is
// completely assigned to a unique node).
type Assignment []int

// Setup binds a query to a topology: who holds what, who must learn the
// answer, and the channel width.
type Setup[T any] struct {
	Q      *faq.Query[T]
	G      *topology.Graph
	Assign Assignment
	// Output is the pre-determined player that must know the answer.
	Output int
	// BitsPerRound overrides the per-edge channel width B; 0 selects the
	// model default (r+1)·⌈log₂ D⌉ — one annotated tuple per round.
	BitsPerRound int
}

// ValueBits returns ⌈log₂ D⌉, the bits of one attribute value (also used
// as the width of one transmitted semiring annotation).
func (s *Setup[T]) ValueBits() int {
	d := s.Q.DomSize
	if d < 2 {
		d = 2
	}
	return bits.Len(uint(d - 1))
}

// DefaultBits returns the model's default channel width
// B = (r+1)·⌈log₂ D⌉: one tuple of arity ≤ r plus its annotation.
func (s *Setup[T]) DefaultBits() int {
	return (s.Q.H.Arity() + 1) * s.ValueBits()
}

// Bits returns the effective channel width.
func (s *Setup[T]) Bits() int {
	if s.BitsPerRound > 0 {
		return s.BitsPerRound
	}
	return s.DefaultBits()
}

// TupleBits returns the cost of shipping one annotated tuple of the
// given arity.
func (s *Setup[T]) TupleBits(arity int) int { return (arity + 1) * s.ValueBits() }

// Players returns the sorted distinct player nodes K.
func (s *Setup[T]) Players() []int {
	return topology.SortedUnique(append([]int(nil), s.Assign...))
}

// Validate checks the setup: a valid query, one in-range player per
// hyperedge, players plus output connected in G.
func (s *Setup[T]) Validate() error {
	if err := s.Q.Validate(); err != nil {
		return err
	}
	if len(s.Assign) != s.Q.H.NumEdges() {
		return fmt.Errorf("protocol: %d assignments for %d hyperedges", len(s.Assign), s.Q.H.NumEdges())
	}
	for e, p := range s.Assign {
		if p < 0 || p >= s.G.N() {
			return fmt.Errorf("protocol: factor %d assigned to invalid node %d", e, p)
		}
	}
	if s.Output < 0 || s.Output >= s.G.N() {
		return fmt.Errorf("protocol: output node %d out of range", s.Output)
	}
	all := append(s.Players(), s.Output)
	if !s.G.ConnectsAll(topology.SortedUnique(all)) {
		return fmt.Errorf("protocol: players %v and output %d not connected in %v", s.Players(), s.Output, s.G)
	}
	return nil
}

// Report carries the measured cost of a protocol run.
type Report struct {
	Protocol string
	Rounds   int
	Bits     int64
}

func (r Report) String() string {
	return fmt.Sprintf("%s: %d rounds, %d bits", r.Protocol, r.Rounds, r.Bits)
}

// notifyEmpty books the 1-bit "this relation is empty" notification from
// src to dst, starting no earlier than the given round, and returns the
// delivery round. An empty relation is never a free ride: the receiver
// must learn it is empty before it can claim to have joined with it.
// RunTrivial, corePhase, and finalize all charge exactly this cost so
// Report values stay consistent across the three sites.
func notifyEmpty(net *netsim.Network, g *topology.Graph, src, dst, start int) (int, error) {
	path := g.ShortestPath(src, dst, nil)
	if path == nil {
		return 0, fmt.Errorf("protocol: no route from %d to %d", src, dst)
	}
	return net.RoutePath(path, start, 1)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
