package protocol

import (
	"fmt"
	"slices"

	"repro/internal/flow"
	"repro/internal/keys"
	"repro/internal/netsim"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/topology"
)

// keyed converge-cast: the scheduling core of Theorem 3.11 and of the
// star protocol. Each participating node holds a relation of semiring
// values; the converge-cast streams its (tuple, value) items up a
// Steiner tree toward the root in sorted tuple order, one item per
// reservation, combining values per tuple at every node and dropping
// tuples absent from any constraining branch — exactly the pipelined
// semijoin chains of Examples 2.1–2.3 when the tree is a path.
//
// A stream is a relation annotated with timed values (sorted and
// duplicate-free by construction), so a node's intersection of its
// branches is relation.Join over equal schemas under timedRing: the
// sorted-key kernel the rest of the repository matches rows with.

// timed is a stream item's annotation: its semiring value and the round
// at which the current node holds it.
type timed[T any] struct {
	val   T
	ready int
}

// timedRing lifts the query semiring to stream items: ⊗ multiplies the
// values and keeps the later ready round, so a joined item is ready
// once its last factor has arrived. No item is zero — an item whose
// value multiplies out to the semiring's 0 still ships, as the schedule
// cannot see values.
type timedRing[T any] struct{ s semiring.Semiring[T] }

func (r timedRing[T]) Zero() timed[T] { return timed[T]{val: r.s.Zero()} }
func (r timedRing[T]) One() timed[T]  { return timed[T]{val: r.s.One()} }
func (r timedRing[T]) Add(a, b timed[T]) timed[T] {
	return timed[T]{r.s.Add(a.val, b.val), max(a.ready, b.ready)}
}
func (r timedRing[T]) Mul(a, b timed[T]) timed[T] {
	return timed[T]{r.s.Mul(a.val, b.val), max(a.ready, b.ready)}
}
func (r timedRing[T]) Equal(a, b timed[T]) bool { return a.ready == b.ready && r.s.Equal(a.val, b.val) }
func (timedRing[T]) IsZero(timed[T]) bool       { return false }
func (r timedRing[T]) Format(a timed[T]) string {
	return fmt.Sprintf("%s@%d", r.s.Format(a.val), a.ready)
}

// convergeSpec configures one keyed converge-cast over one tree.
type convergeSpec[T any] struct {
	net   *netsim.Network
	ring  timedRing[T]
	tree  *netsim.Tree
	start int
	// itemBits is the channel cost of one (tuple, value) item.
	itemBits int
	// local holds each contributing node's own items, ready at start;
	// a node without an entry only relays.
	local map[int]*relation.Relation[timed[T]]
}

// run executes the converge-cast and returns the root's stream: the
// tuples surviving every constraining branch, with combined values and
// the rounds at which the root held them.
func (c *convergeSpec[T]) run() (*relation.Relation[timed[T]], error) {
	g := c.net.Graph()
	// Orient the tree.
	in := make(map[int]bool, len(c.tree.Edges))
	for _, e := range c.tree.Edges {
		in[e] = true
	}
	children := make(map[int][]int)
	seen := map[int]bool{c.tree.Root: true}
	queue := []int{c.tree.Root}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Adj(u) {
			id, _ := g.EdgeID(u, v)
			if !in[id] || seen[v] {
				continue
			}
			seen[v] = true
			children[u] = append(children[u], v)
			queue = append(queue, v)
			count++
		}
	}
	if count != len(c.tree.Edges)+1 {
		return nil, fmt.Errorf("protocol: converge edge set is not a tree rooted at %d", c.tree.Root)
	}
	//faqlint:allow mapiter(per-key in-place sort of the child lists; key visit order immaterial)
	for u := range children {
		slices.Sort(children[u])
	}

	var walk func(u int) (*relation.Relation[timed[T]], error)
	walk = func(u int) (*relation.Relation[timed[T]], error) {
		// Intersection semantics: an item survives iff it is in the
		// local contribution (when the node has one) and in every
		// branch. Values fold left: local first, then branches in child
		// order.
		cur := c.local[u]
		for _, v := range children[u] {
			sub, err := walk(v)
			if err != nil {
				return nil, err
			}
			// Ship the child's stream up its edge with pipelined
			// per-item reservations, in sorted tuple order.
			b := relation.NewBuilderHint(c.ring, sub.Schema(), sub.Len())
			for i := 0; i < sub.Len(); i++ {
				tv := sub.Value(i)
				arrive, err := c.net.Reserve(v, u, max(tv.ready, c.start), c.itemBits)
				if err != nil {
					return nil, err
				}
				b.AddRow(sub.Tuple(i), timed[T]{tv.val, arrive})
			}
			if shipped := b.Build(); cur == nil {
				cur = shipped
			} else {
				cur = relation.Join(c.ring, cur, shipped)
			}
		}
		if cur == nil {
			return relation.Empty[timed[T]](nil), nil // bare relay leaf: contributes nothing
		}
		return cur, nil
	}
	return walk(c.tree.Root)
}

// convergeOverPacking runs one keyed converge-cast per packed tree
// toward target, tree ti starting at starts[ti]. Each player's items
// (all over one schema) are split across the trees by keys.ChunkCols of
// the whole tuple. It returns the merged root streams and the round at
// which the target holds its last item.
func convergeOverPacking[T any](net *netsim.Network, s semiring.Semiring[T], players map[int]*relation.Relation[T],
	target int, packing []*flow.SteinerTree, starts []int, itemBits int) (*relation.Relation[T], int, error) {
	ring := timedRing[T]{s}
	holders := sortedKeys(players)
	parts := make([]map[int]*relation.Relation[timed[T]], len(packing))
	for ti := range parts {
		parts[ti] = make(map[int]*relation.Relation[timed[T]], len(holders))
	}
	for _, u := range holders {
		rel := players[u]
		bs := make([]*relation.Builder[timed[T]], len(packing))
		for ti := range bs {
			bs[ti] = relation.NewBuilder(ring, rel.Schema())
		}
		for i := 0; i < rel.Len(); i++ {
			t := rel.Tuple(i)
			ti := keys.ChunkCols(t, nil, len(packing))
			bs[ti].AddRow(t, timed[T]{rel.Value(i), starts[ti]})
		}
		for ti, b := range bs {
			parts[ti][u] = b.Build()
		}
	}
	out := relation.NewBuilder(s, players[holders[0]].Schema())
	terminals := topology.SortedUnique(append(holders, target))
	finish := slices.Max(starts)
	for ti, st := range packing {
		spec := &convergeSpec[T]{
			net:      net,
			ring:     ring,
			tree:     pruneToTerminals(net.Graph(), &netsim.Tree{Root: target, Edges: st.Edges}, terminals),
			start:    starts[ti],
			itemBits: itemBits,
			local:    parts[ti],
		}
		root, err := spec.run()
		if err != nil {
			return nil, 0, err
		}
		for i := 0; i < root.Len(); i++ {
			tv := root.Value(i)
			out.AddRow(root.Tuple(i), tv.val)
			finish = max(finish, tv.ready)
		}
	}
	return out.Build(), finish, nil
}

// sortedKeys lists a player-keyed map's players in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// broadcastSpec streams an indexed item sequence from the root down a
// tree, pipelined (item i can leave a node the round after arriving).
type broadcastSpec struct {
	net      *netsim.Network
	tree     *netsim.Tree
	start    int
	items    int
	itemBits int
}

// run returns the round at which the last node holds the last item.
func (b *broadcastSpec) run() (int, error) {
	g := b.net.Graph()
	in := make(map[int]bool, len(b.tree.Edges))
	for _, e := range b.tree.Edges {
		in[e] = true
	}
	finish := b.start
	// arrival[i] at the current node; recurse down.
	var walk func(u int, arrival []int, visited map[int]bool) error
	walk = func(u int, arrival []int, visited map[int]bool) error {
		visited[u] = true
		for _, v := range g.Adj(u) {
			id, _ := g.EdgeID(u, v)
			if !in[id] || visited[v] {
				continue
			}
			childArr := make([]int, b.items)
			for i := 0; i < b.items; i++ {
				t, err := b.net.Reserve(u, v, max(arrival[i], b.start), b.itemBits)
				if err != nil {
					return err
				}
				childArr[i] = t
				if t > finish {
					finish = t
				}
			}
			if err := walk(v, childArr, visited); err != nil {
				return err
			}
		}
		return nil
	}
	rootArr := make([]int, b.items)
	for i := range rootArr {
		rootArr[i] = b.start + i // the source releases one item per round
	}
	if err := walk(b.tree.Root, rootArr, map[int]bool{}); err != nil {
		return 0, err
	}
	return finish, nil
}

// pruneToTerminals drops non-terminal leaves from a Steiner tree so that
// converge-cast leaves always carry constraints.
func pruneToTerminals(g *topology.Graph, tree *netsim.Tree, terminals []int) *netsim.Tree {
	isTerm := make(map[int]bool, len(terminals))
	for _, t := range terminals {
		isTerm[t] = true
	}
	edges := append([]int(nil), tree.Edges...)
	for {
		deg := make(map[int]int)
		for _, e := range edges {
			u, v := g.Edge(e)
			deg[u]++
			deg[v]++
		}
		removed := false
		var keep []int
		for _, e := range edges {
			u, v := g.Edge(e)
			if (deg[u] == 1 && !isTerm[u] && u != tree.Root) || (deg[v] == 1 && !isTerm[v] && v != tree.Root) {
				removed = true
				continue
			}
			keep = append(keep, e)
		}
		edges = keep
		if !removed {
			break
		}
	}
	return &netsim.Tree{Root: tree.Root, Edges: edges}
}
