// Package netsim simulates the synchronous distributed network of
// Model 2.1: in each round, at most B = O(r·log₂ D) bits cross each edge
// of the topology, and a protocol's cost is the index of the last round
// in which any bit moves.
//
// Protocols are expressed as compositions of causal scheduling primitives
// over a round-indexed edge-capacity ledger: a hop can forward data no
// earlier than the round after it received it, and reservations never
// exceed an edge's per-round capacity. Round counts reported by the
// simulator are therefore exactly the model's round complexity for the
// schedule at hand. Data transformation (semijoins, aggregation) happens
// in protocol code; the simulator accounts for movement.
package netsim

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/topology"
)

// Chaos failpoints on the message ledger. The three sites are evaluated
// per message (Reserve / SendBits / RoutePath call), in this order:
//
//	netsim.drop  — the message is lost: the call returns a typed
//	               *MessageLostError (errors.Is ErrMessageLost) and
//	               books nothing, the shape a real lossy channel shows.
//	netsim.delay — the message leaves Arg rounds late (default 1): the
//	               earliest send round is pushed back, so answers stay
//	               bit-identical while Report round counts grow.
//	netsim.dup   — the message is booked twice (duplicate delivery):
//	               the reported delivery round is the original copy's,
//	               so answers stay bit-identical while ledger bits grow.
var (
	dropSite     = fault.Register("netsim.drop")
	dupSite      = fault.Register("netsim.dup")
	msgDelaySite = fault.Register("netsim.delay")
)

// ErrMessageLost matches every drop-site injection (errors.Is).
var ErrMessageLost = errors.New("netsim: message lost")

// MessageLostError reports an injected message loss between two nodes.
type MessageLostError struct {
	From, To int
}

func (e *MessageLostError) Error() string {
	return fmt.Sprintf("netsim: message from %d to %d lost (injected)", e.From, e.To)
}

// Is makes errors.Is(err, ErrMessageLost) succeed.
func (e *MessageLostError) Is(target error) bool { return target == ErrMessageLost }

// messageFaults evaluates the per-message failpoints for a message from
// u to v first sendable at round start. It returns the (possibly
// delayed) start round and whether the message must be booked twice.
func (n *Network) messageFaults(u, v, start int) (int, bool, error) {
	if _, ok := dropSite.Fire(); ok {
		return 0, false, &MessageLostError{From: u, To: v}
	}
	if cfg, ok := msgDelaySite.Fire(); ok {
		d := cfg.Arg
		if d <= 0 {
			d = 1
		}
		start += d
	}
	_, dup := dupSite.Fire()
	return start, dup, nil
}

// Network wraps a topology with a per-(edge, round) bit ledger.
type Network struct {
	g *topology.Graph
	b int // bits per edge per round

	used      [][]int // used[edge][round] = bits reserved
	lastRound int     // highest round index reserved, -1 when idle
	totalBits int64
}

// New returns a simulator over g where each edge carries bitsPerRound
// bits per round (the paper's B = O(r·log₂ D)).
func New(g *topology.Graph, bitsPerRound int) (*Network, error) {
	if bitsPerRound <= 0 {
		return nil, fmt.Errorf("netsim: bits per round must be positive, got %d", bitsPerRound)
	}
	return &Network{
		g:         g,
		b:         bitsPerRound,
		used:      make([][]int, g.M()),
		lastRound: -1,
	}, nil
}

// Graph returns the underlying topology.
func (n *Network) Graph() *topology.Graph { return n.g }

// Rounds returns the number of rounds the schedule uses so far (the
// paper's round complexity): lastOccupiedRound + 1.
func (n *Network) Rounds() int { return n.lastRound + 1 }

// TotalBits returns the total bits moved (for communication-volume
// comparisons with the total-communication literature, Section 7).
func (n *Network) TotalBits() int64 { return n.totalBits }

// reserve books `bits` (≤ B) on edge e at the earliest round ≥ r with
// spare capacity, returning the booked round.
func (n *Network) reserve(e, r, bits int) int {
	for {
		for len(n.used[e]) <= r {
			n.used[e] = append(n.used[e], 0)
		}
		if n.used[e][r]+bits <= n.b {
			n.used[e][r] += bits
			if r > n.lastRound {
				n.lastRound = r
			}
			n.totalBits += int64(bits)
			return r
		}
		r++
	}
}

// Reserve books a message of the given size (≤ B) on the channel between
// adjacent nodes u and v, at the earliest round ≥ earliest with spare
// capacity, and returns the round at which the receiver holds it (booked
// round + 1). It is the low-level primitive behind the pipelined keyed
// schedules of the protocol package.
func (n *Network) Reserve(u, v, earliest, bits int) (int, error) {
	if earliest < 0 || bits <= 0 {
		return 0, fmt.Errorf("netsim: invalid reserve (round %d, %d bits)", earliest, bits)
	}
	if bits > n.b {
		return 0, fmt.Errorf("netsim: reserve of %d bits exceeds capacity %d", bits, n.b)
	}
	e, err := n.edgeOf(u, v)
	if err != nil {
		return 0, err
	}
	earliest, dup, err := n.messageFaults(u, v, earliest)
	if err != nil {
		return 0, err
	}
	r := n.reserve(e, earliest, bits) + 1
	if dup {
		n.reserve(e, earliest, bits)
	}
	return r, nil
}

// edgeOf validates adjacency and returns the edge id.
func (n *Network) edgeOf(u, v int) (int, error) {
	id, ok := n.g.EdgeID(u, v)
	if !ok {
		return 0, fmt.Errorf("netsim: no channel between %d and %d", u, v)
	}
	return id, nil
}

// SendBits transmits a message of the given size from u to its neighbor
// v, starting no earlier than round start. Large messages split into
// ⌈bits/B⌉ sequential per-round reservations. It returns the first round
// at which v fully holds the message (protocols chain the next step from
// that round).
func (n *Network) SendBits(u, v, start, bits int) (int, error) {
	if start < 0 || bits < 0 {
		return 0, fmt.Errorf("netsim: negative start/bits")
	}
	e, err := n.edgeOf(u, v)
	if err != nil {
		return 0, err
	}
	if bits == 0 {
		return start, nil
	}
	start, dup, err := n.messageFaults(u, v, start)
	if err != nil {
		return 0, err
	}
	send := func() int {
		r := start
		remaining := bits
		for remaining > 0 {
			chunk := remaining
			if chunk > n.b {
				chunk = n.b
			}
			r = n.reserve(e, r, chunk) + 1
			remaining -= chunk
		}
		return r
	}
	r := send()
	if dup {
		send()
	}
	return r, nil
}

// RoutePath pipelines a message of the given size along a path
// (consecutive vertices must be adjacent): chunk c may leave hop i only
// in a round after it arrived there. For an uncontended path of length L
// this completes in ⌈bits/B⌉ + L − 1 rounds. Returns the delivery round.
func (n *Network) RoutePath(path []int, start, bits int) (int, error) {
	if len(path) == 0 {
		return 0, fmt.Errorf("netsim: empty path")
	}
	if start < 0 || bits < 0 {
		return 0, fmt.Errorf("netsim: negative start/bits")
	}
	if len(path) == 1 || bits == 0 {
		return start, nil
	}
	edges := make([]int, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		e, err := n.edgeOf(path[i], path[i+1])
		if err != nil {
			return 0, err
		}
		edges[i] = e
	}
	start, dup, err := n.messageFaults(path[0], path[len(path)-1], start)
	if err != nil {
		return 0, err
	}
	route := func() int {
		finish := start
		remaining := bits
		ready := start // round at which the next chunk is available at hop 0
		for remaining > 0 {
			chunk := remaining
			if chunk > n.b {
				chunk = n.b
			}
			r := ready
			for _, e := range edges {
				r = n.reserve(e, r, chunk) + 1
			}
			if r > finish {
				finish = r
			}
			ready++ // source releases one chunk per round at the earliest
			remaining -= chunk
		}
		return finish
	}
	finish := route()
	if dup {
		route()
	}
	return finish, nil
}

// Tree is a rooted edge subset of the topology used by converge-cast.
type Tree struct {
	Root  int
	Edges []int
}

// children orients the tree away from the root, returning child lists.
func (n *Network) children(t *Tree) (map[int][]int, error) {
	in := make(map[int]bool, len(t.Edges))
	for _, e := range t.Edges {
		in[e] = true
	}
	ch := make(map[int][]int)
	queue := []int{t.Root}
	seen := map[int]bool{t.Root: true}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range n.g.Adj(u) {
			id, _ := n.g.EdgeID(u, v)
			if !in[id] || seen[v] {
				continue
			}
			seen[v] = true
			ch[u] = append(ch[u], v)
			queue = append(queue, v)
		}
	}
	// A tree reaches one node per edge beyond the root; a cycle or a
	// disconnected edge set reaches fewer.
	if len(seen) != len(t.Edges)+1 {
		return nil, fmt.Errorf("netsim: edge set is not a tree rooted at %d", t.Root)
	}
	return ch, nil
}

// ConvergeTree aggregates fixed-size messages bottom-up: every non-root
// node sends `bits` to its parent once it has received from all its
// children (aggregation keeps message size constant, as in the bit-wise
// AND of Theorem 3.11). Returns the round at which the root has heard
// from all children.
func (n *Network) ConvergeTree(t *Tree, start, bits int) (int, error) {
	ch, err := n.children(t)
	if err != nil {
		return 0, err
	}
	var walk func(u int) (int, error) // round at which u is ready to send up
	walk = func(u int) (int, error) {
		ready := start
		for _, v := range ch[u] {
			childReady, err := walk(v)
			if err != nil {
				return 0, err
			}
			done, err := n.SendBits(v, u, childReady, bits)
			if err != nil {
				return 0, err
			}
			if done > ready {
				ready = done
			}
		}
		return ready, nil
	}
	return walk(t.Root)
}
