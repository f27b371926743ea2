package protocol

import (
	"fmt"
	"slices"

	"repro/internal/exec"
	"repro/internal/faq"
	"repro/internal/flow"
	"repro/internal/ghd"
	"repro/internal/keys"
	"repro/internal/netsim"
	"repro/internal/relation"
	"repro/internal/semiring"
	"repro/internal/topology"
)

// runner executes the paper's main protocol (Theorem 4.1 / F.1 / G.4) on
// one GYO-GHD: bottom-up star reductions over the forest part
// (Lemma 4.1, Algorithms 1–3) and the trivial protocol on the cyclic
// core (Lemma 4.2), wherever the core sits in the tree, with every
// transmission booked on the simulator's capacity ledger. Node order,
// factor placement and keep sets come from the pass plan p.
type runner[T any] struct {
	s   *Setup[T]
	net *netsim.Network
	p   *faq.Pass

	rel    []*relation.Relation[T] // current relation per GHD node
	owner  []int                   // current holder per GHD node (-1: none)
	finish []int                   // round at which the node's relation is ready
}

// Run executes the main protocol end to end and returns the answer
// relation (schema = the query's free variables) plus the measured cost.
// Planning goes through faq.PlanGHD — the same primitive the plan cache
// compiles once per query shape — so a service can hand RunOnGHD a cached
// decomposition and skip the planning cost entirely.
func Run[T any](s *Setup[T]) (*relation.Relation[T], Report, error) {
	gh, err := faq.PlanGHD(s.Q.H, s.Q.Free)
	if err != nil {
		return nil, Report{}, err
	}
	return RunOnGHD(s, gh)
}

// RunOnGHD is Run on a caller-chosen decomposition (ablation studies
// schedule the same query on differently-shaped GHDs).
func RunOnGHD[T any](s *Setup[T], gh *ghd.GHD) (*relation.Relation[T], Report, error) {
	rep := Report{Protocol: "faq-main"}
	if err := s.Validate(); err != nil {
		return nil, rep, err
	}
	if err := gh.Validate(); err != nil {
		return nil, rep, err
	}
	p, err := faq.NewPass(gh, s.Q.Free)
	if err != nil {
		return nil, rep, err
	}
	net, err := netsim.New(s.G, s.Bits())
	if err != nil {
		return nil, rep, err
	}
	n := len(p.Parent)
	r := &runner[T]{
		s:      s,
		net:    net,
		p:      p,
		rel:    make([]*relation.Relation[T], n),
		owner:  make([]int, n),
		finish: make([]int, n),
	}
	for v, es := range p.Edges {
		r.owner[v] = -1
		if len(es) > 1 {
			return nil, rep, fmt.Errorf("protocol: GHD node %d carries %d factors", v, len(es))
		}
		if len(es) == 1 {
			r.rel[v], r.owner[v] = s.Q.Factors[es[0]], s.Assign[es[0]]
		}
	}

	for _, v := range p.Order {
		if len(p.Children[v]) == 0 {
			continue
		}
		if r.rel[v] == nil {
			if err := r.corePhase(v); err != nil {
				return nil, rep, err
			}
			continue
		}
		// The converged map must land where the center relation lives
		// (R′_P filters the center's tuples), so the star target is the
		// center owner; finalize() ships the (aggregated, small) answer
		// to the output player afterwards.
		if err := r.starReduce(v, r.owner[v]); err != nil {
			return nil, rep, err
		}
	}

	ans, err := r.finalize()
	if err != nil {
		return nil, rep, err
	}
	rep.Rounds = net.Rounds()
	rep.Bits = net.TotalBits()
	RecordReport(rep)
	return ans, rep, nil
}

// starReduce runs Algorithm 1/2/3 on the star centered at GHD node v
// and its children, leaving R′_P at the target player.
func (r *runner[T]) starReduce(v, target int) error {
	q := r.s.Q
	children := r.p.Children[v]
	start := r.finish[v]
	// Child messages are pure local reductions (no ledger bookings): each
	// child's relation aggregated to its keep set, the push-down of
	// Corollary G.2. They fan out across the exec pool; every
	// transmission below stays on the sequential schedule, keeping
	// measured costs byte-identical.
	msgList := make([]*relation.Relation[T], len(children))
	if err := exec.Default().MapErr(len(children), func(i int) error {
		c := children[i]
		m, err := faq.EvalNode(q, r.rel[c], nil, r.p.Keep[c])
		if err != nil {
			return err
		}
		msgList[i] = m
		return nil
	}); err != nil {
		return err
	}
	msgs := make(map[int]*relation.Relation[T], len(children))
	msgOwner := make(map[int]int, len(children))
	for i, c := range children {
		msgs[c] = msgList[i]
		msgOwner[c] = r.owner[c]
		if r.finish[c] > start {
			start = r.finish[c]
		}
	}

	// Player set of this star.
	K := []int{target, r.owner[v]}
	for _, c := range children {
		K = append(K, r.owner[c])
	}
	K = topology.SortedUnique(K)

	if len(K) == 1 {
		// Everything is already co-located: a purely local reduction.
		r.rel[v] = localStar(q, r.rel[v], children, msgs)
		r.owner[v] = target
		r.finish[v] = start
		return nil
	}

	// Fast path (Examples 2.1–2.3): every child shares the same
	// variable set W with the center, so converged (key, value) streams
	// over π_W need no prior broadcast of the center relation.
	fast := true
	var w []int
	for i, c := range children {
		sc := msgs[c].Schema()
		if i == 0 {
			w = sc
		} else if !slices.Equal(w, sc) {
			fast = false
		}
	}

	units := 0
	for _, c := range children {
		if msgs[c].Len() > units {
			units = msgs[c].Len()
		}
	}
	if !fast && r.rel[v].Len() > units {
		units = r.rel[v].Len()
	}
	if units == 0 {
		units = 1
	}
	_, packing, _, err := flow.BestDelta(r.s.G, K, units)
	if err != nil {
		return err
	}

	var weighted *relation.Relation[T]
	var done int
	if fast {
		// R′_P: the center joined with the converged map over W, which
		// the GHD guarantees lies in the center's schema — verified, as a
		// miss would silently widen the join.
		if _, err := relation.Columns(r.rel[v].Schema(), w); err != nil {
			return err
		}
		conv, d, err := fastStar(r, children, msgs, msgOwner, target, packing, start)
		if err != nil {
			return err
		}
		weighted, done = relation.Join(q.S, r.rel[v], conv), d
	} else {
		conv, d, err := generalStar(r, v, children, msgs, msgOwner, target, packing, start)
		if err != nil {
			return err
		}
		weighted, done = weightByIndex(q.S, r.rel[v], conv), d
	}

	r.rel[v] = weighted
	r.owner[v] = target
	r.finish[v] = done
	return nil
}

// weightByIndex builds R′_P for the general star: center row i
// survives iff index i converged, weighted by the converged value.
func weightByIndex[T any](s semiring.Semiring[T], center, conv *relation.Relation[T]) *relation.Relation[T] {
	b := relation.NewBuilderHint(s, center.Schema(), conv.Len())
	for k := 0; k < conv.Len(); k++ {
		i := int(conv.Tuple(k)[0])
		b.AddRow(center.Tuple(i), s.Mul(center.Value(i), conv.Value(k)))
	}
	return b.Build()
}

// fastStar converges the child messages π_W directly (no broadcast):
// the pipelined semijoin chains of Examples 2.1–2.3 generalized to
// Steiner packings.
func fastStar[T any](r *runner[T], children []int, msgs map[int]*relation.Relation[T],
	msgOwner map[int]int, target int, packing []*flow.SteinerTree, start int) (*relation.Relation[T], int, error) {
	q := r.s.Q
	itemBits := clampBits(r.s.TupleBits(len(msgs[children[0]].Schema())), r.s.Bits())
	// Per-player local contribution: the join of the player's children.
	players := make(map[int]*relation.Relation[T])
	for _, c := range children {
		joinInto(q.S, players, msgOwner[c], msgs[c])
	}
	starts := make([]int, len(packing))
	for i := range starts {
		starts[i] = start
	}
	return convergeOverPacking(r.net, q.S, players, target, packing, starts, itemBits)
}

// joinInto folds m into player o's contribution: the first message is
// the contribution, later ones join it (equal schemas: keys intersect,
// values multiply in child order).
func joinInto[T any](s semiring.Semiring[T], players map[int]*relation.Relation[T], o int, m *relation.Relation[T]) {
	if cur, ok := players[o]; ok {
		m = relation.Join(s, cur, m)
	}
	players[o] = m
}

// generalStar implements the heterogeneous-star case of Algorithm 1:
// the center relation is first broadcast over the packing (chunked per
// tree), each child owner computes its value vector over the center's
// tuple indices, and the vectors converge with component-wise ⊗
// (footnote 24). A vector is a one-column relation of (index, value)
// rows; generalStar returns the converged one.
func generalStar[T any](r *runner[T], v int, children []int, msgs map[int]*relation.Relation[T],
	msgOwner map[int]int, target int, packing []*flow.SteinerTree, start int) (*relation.Relation[T], int, error) {
	q := r.s.Q
	center := r.rel[v]
	src := r.owner[v]
	tupleBits := clampBits(r.s.TupleBits(center.Arity()), r.s.Bits())

	// Broadcast the center relation, chunked across the packing with the
	// same index chunking the converge phase uses (one counting pass).
	chunkCount := make([]int, len(packing))
	for i := 0; i < center.Len(); i++ {
		chunkCount[keys.ChunkCols([]int32{int32(i)}, nil, len(packing))]++
	}
	broadcastDone := make([]int, len(packing))
	for ti, st := range packing {
		n := chunkCount[ti]
		spec := &broadcastSpec{
			net:      r.net,
			tree:     &netsim.Tree{Root: src, Edges: st.Edges},
			start:    start,
			items:    n,
			itemBits: tupleBits,
		}
		done, err := spec.run()
		if err != nil {
			return nil, 0, err
		}
		broadcastDone[ti] = done
	}

	// Each player's vector over center tuple indices: for every child it
	// owns, index i survives iff the child's message lists the center
	// tuple's projection; values multiply.
	idxBits := clampBits(keys.Bits(max(center.Len(), 2)-1)+r.s.ValueBits(), r.s.Bits())
	players := make(map[int]*relation.Relation[T])
	for _, c := range children {
		m := msgs[c]
		cols, err := relation.Columns(center.Schema(), m.Schema())
		if err != nil {
			return nil, 0, err
		}
		vec := relation.NewBuilderHint(q.S, []int{0}, center.Len())
		key := make([]int32, len(cols))
		for i := 0; i < center.Len(); i++ {
			t := center.Tuple(i)
			for k, col := range cols {
				key[k] = t[col]
			}
			val, ok := relation.LookupRow(m, key)
			if len(cols) == 0 && m.Len() > 0 {
				val, ok = m.Value(0), true // a scalar message matches every tuple
			}
			if ok {
				vec.AddRow([]int32{int32(i)}, val)
			}
		}
		joinInto(q.S, players, msgOwner[c], vec.Build())
	}
	// Converge each chunk after its broadcast completes.
	return convergeOverPacking(r.net, q.S, players, target, packing, broadcastDone, idxBits)
}

// corePhase evaluates a factorless node (the fat core root of
// Construction 2.8) wherever it sits in the tree: its children (core
// factors and reduced pendant-tree roots) are routed to the output
// player with the trivial protocol (Lemma 3.1), which then joins them
// and aggregates to the node's keep set — exactly F at the root.
func (r *runner[T]) corePhase(v int) error {
	children := r.p.Children[v]
	out := r.s.Output
	// Sharded flow analysis, sequential ledger: the per-child MaxFlow
	// calls are pure reads of the topology, so they run across the exec
	// pool; all RoutePath bookings below stay in child order on the
	// sequential netsim ledger, keeping the Report byte-identical at any
	// worker count (same split as RunTrivial's).
	flows := make([]*flow.Result, len(children))
	if err := exec.Default().MapErr(len(children), func(i int) error {
		c := children[i]
		src := r.owner[c]
		bits := r.rel[c].Len() * r.s.TupleBits(r.rel[c].Arity())
		if src == out || bits == 0 { // same predicate as the ledger loop below
			return nil
		}
		res, err := flow.MaxFlow(r.s.G, src, out)
		if err != nil {
			return err
		}
		flows[i] = res
		return nil
	}); err != nil {
		return err
	}
	for i, c := range children {
		src := r.owner[c]
		if src == out {
			continue
		}
		bits := r.rel[c].Len() * r.s.TupleBits(r.rel[c].Arity())
		if bits == 0 {
			d, err := notifyEmpty(r.net, r.s.G, src, out, r.finish[c])
			if err != nil {
				return err
			}
			if d > r.finish[c] {
				r.finish[c] = d
			}
			continue
		}
		res := flows[i]
		if res.Value == 0 {
			return fmt.Errorf("protocol: no route from %d to %d", src, out)
		}
		share := ceilDiv(bits, res.Value)
		done := r.finish[c]
		for _, p := range res.Paths {
			d, err := r.net.RoutePath(p, r.finish[c], share)
			if err != nil {
				return err
			}
			if d > done {
				done = d
			}
		}
		r.finish[c] = done
	}
	// Local computation at the output: the node evaluator over the
	// shipped children.
	cur, err := faq.EvalAt(r.s.Q, r.p, v, nil, r.rel)
	if err != nil {
		return err
	}
	done := 0
	for _, c := range children {
		done = max(done, r.finish[c])
	}
	r.rel[v], r.owner[v], r.finish[v] = cur, out, done
	return nil
}

// finalize aggregates the root relation down to the free variables at
// its owner and ships the answer to the output player if needed.
func (r *runner[T]) finalize() (*relation.Relation[T], error) {
	root := r.p.Root
	cur, err := faq.EvalNode(r.s.Q, r.rel[root], nil, r.p.Keep[root])
	if err != nil {
		return nil, err
	}
	if r.owner[root] != r.s.Output {
		path := r.s.G.ShortestPath(r.owner[root], r.s.Output, nil)
		if path == nil {
			return nil, fmt.Errorf("protocol: answer holder %d cannot reach output %d", r.owner[root], r.s.Output)
		}
		bits := cur.Len() * r.s.TupleBits(cur.Arity())
		if bits == 0 {
			bits = 1 // an empty answer still needs a round to say so
		}
		if _, err := r.net.RoutePath(path, r.finish[root], bits); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// localStar reduces a star without communication (all relations at one
// player). Each child message's schema is a subset of the center's, so
// filtering-and-weighting the center by a message is exactly the natural
// join — which the relation kernel executes with a sorted merge whenever
// the shared variables are a schema prefix.
func localStar[T any](q *faq.Query[T], center *relation.Relation[T], children []int, msgs map[int]*relation.Relation[T]) *relation.Relation[T] {
	cur := center
	for _, c := range children {
		cur = relation.Join(q.S, cur, msgs[c])
	}
	return cur
}

func clampBits(bits, cap int) int {
	if bits > cap {
		return cap
	}
	if bits <= 0 {
		return 1
	}
	return bits
}
