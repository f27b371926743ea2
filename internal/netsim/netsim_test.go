package netsim

import (
	"math/rand"
	"testing"

	"repro/internal/topology"
)

func mustNet(t *testing.T, g *topology.Graph, b int) *Network {
	t.Helper()
	n, err := New(g, b)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewRejectsBadCapacity(t *testing.T) {
	if _, err := New(topology.Line(2), 0); err == nil {
		t.Error("expected error for zero capacity")
	}
}

func TestSendBitsSingleRound(t *testing.T) {
	n := mustNet(t, topology.Line(2), 8)
	done, err := n.SendBits(0, 1, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Errorf("done = %d, want 1", done)
	}
	if n.Rounds() != 1 {
		t.Errorf("rounds = %d, want 1", n.Rounds())
	}
	if n.TotalBits() != 8 {
		t.Errorf("total bits = %d, want 8", n.TotalBits())
	}
}

func TestSendBitsSplitsLargeMessage(t *testing.T) {
	n := mustNet(t, topology.Line(2), 8)
	done, err := n.SendBits(0, 1, 0, 20) // 3 rounds: 8+8+4
	if err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Errorf("done = %d, want 3", done)
	}
}

func TestSendBitsSharesCapacity(t *testing.T) {
	n := mustNet(t, topology.Line(2), 8)
	d1, _ := n.SendBits(0, 1, 0, 4)
	d2, _ := n.SendBits(0, 1, 0, 4)
	if d1 != 1 || d2 != 1 {
		t.Errorf("two half-capacity messages should share round 0: %d, %d", d1, d2)
	}
	d3, _ := n.SendBits(0, 1, 0, 4)
	if d3 != 2 {
		t.Errorf("third message must spill to round 1: done = %d", d3)
	}
}

func TestSendBitsNonAdjacent(t *testing.T) {
	n := mustNet(t, topology.Line(3), 8)
	if _, err := n.SendBits(0, 2, 0, 4); err == nil {
		t.Error("expected error for non-adjacent send")
	}
}

func TestRoutePathPipelines(t *testing.T) {
	// 10 chunks over 3 hops: 10 + 3 - 1 = 12 rounds.
	n := mustNet(t, topology.Line(4), 8)
	done, err := n.RoutePath([]int{0, 1, 2, 3}, 0, 80)
	if err != nil {
		t.Fatal(err)
	}
	if done != 12 {
		t.Errorf("pipelined delivery = %d, want 12", done)
	}
}

func TestRoutePathContention(t *testing.T) {
	// Two full-capacity streams over the same edge serialize.
	n := mustNet(t, topology.Line(2), 8)
	d1, _ := n.RoutePath([]int{0, 1}, 0, 32)
	d2, _ := n.RoutePath([]int{0, 1}, 0, 32)
	if d1 != 4 {
		t.Errorf("first stream = %d, want 4", d1)
	}
	if d2 != 8 {
		t.Errorf("second stream = %d, want 8 (serialized)", d2)
	}
}

func TestRoutePathDisjointEdgesOverlap(t *testing.T) {
	// Streams on disjoint edges run simultaneously.
	g := topology.Line(3)
	n := mustNet(t, g, 8)
	d1, _ := n.RoutePath([]int{0, 1}, 0, 32)
	d2, _ := n.RoutePath([]int{2, 1}, 0, 32)
	if d1 != 4 || d2 != 4 {
		t.Errorf("parallel streams = %d, %d, want 4, 4", d1, d2)
	}
	if n.Rounds() != 4 {
		t.Errorf("rounds = %d, want 4", n.Rounds())
	}
}

func TestConvergeTreeLine(t *testing.T) {
	g := topology.Line(4)
	n := mustNet(t, g, 8)
	tree := &Tree{Root: 0, Edges: []int{0, 1, 2}}
	done, err := n.ConvergeTree(tree, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Errorf("line converge = %d, want 3", done)
	}
}

func TestConvergeTreeStar(t *testing.T) {
	g := topology.Star(6)
	n := mustNet(t, g, 8)
	tree := &Tree{Root: 0, Edges: []int{0, 1, 2, 3, 4}}
	done, err := n.ConvergeTree(tree, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if done != 1 {
		t.Errorf("star converge = %d, want 1", done)
	}
}

func TestTreeValidation(t *testing.T) {
	g := topology.Ring(4)
	n := mustNet(t, g, 8)
	// All 4 ring edges form a cycle, not a tree.
	bad := &Tree{Root: 0, Edges: []int{0, 1, 2, 3}}
	if _, err := n.ConvergeTree(bad, 0, 4); err == nil {
		t.Error("expected error for cyclic edge set")
	}
	// Disconnected edge set.
	g2 := topology.Line(4)
	n2 := mustNet(t, g2, 8)
	e02, _ := g2.EdgeID(0, 1)
	e23, _ := g2.EdgeID(2, 3)
	bad2 := &Tree{Root: 0, Edges: []int{e02, e23}}
	if _, err := n2.ConvergeTree(bad2, 0, 4); err == nil {
		t.Error("expected error for disconnected edge set")
	}
}

// TestCapacityNeverExceeded drives random primitives and then audits the
// ledger: no (edge, round) cell may exceed B — the defining constraint
// of Model 2.1.
func TestCapacityNeverExceeded(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		g := topology.RandomConnected(4+r.Intn(6), r.Intn(8), r)
		b := 1 + r.Intn(16)
		n := mustNet(t, g, b)
		for op := 0; op < 30; op++ {
			u := r.Intn(g.N())
			nbrs := g.Adj(u)
			v := nbrs[r.Intn(len(nbrs))]
			switch r.Intn(3) {
			case 0:
				if _, err := n.SendBits(u, v, r.Intn(5), 1+r.Intn(3*b)); err != nil {
					t.Fatal(err)
				}
			case 1:
				path := g.ShortestPath(u, (u+1)%g.N(), nil)
				if len(path) > 1 {
					if _, err := n.RoutePath(path, r.Intn(5), 1+r.Intn(4*b)); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				if _, err := n.Reserve(u, v, r.Intn(5), 1+r.Intn(b)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for e := range n.used {
			for round, bits := range n.used[e] {
				if bits > b {
					t.Fatalf("edge %d round %d uses %d bits > capacity %d", e, round, bits, b)
				}
			}
		}
	}
}
