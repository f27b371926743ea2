package relation

import (
	"slices"

	"repro/internal/hypergraph"
	"repro/internal/semiring"
)

// coreBind is one child listing a depth's variable: the child's rows
// and arity, the column holding the variable, the child's offset array
// when that column is its first, the index of the column's range in
// coreNode.lo and hi, and, while the depth is open, the child's next
// candidate row and the end of its range.
type coreBind struct {
	rows       []int32
	off        []int32
	a, col, at int
	cur, hi    int
}

// coreGather is the dense accumulator of an eliminated variable ahead of
// the last kept one. It is keyed by the kept variables after it (mixed
// radix, the first most significant), and lists the cells touched since
// its last flush.
type coreGather[T any] struct {
	depth, width int // the variable's depth; how many kept variables follow it
	span         int // dom^width
	acc          []T
	seen         []bool
	touched      []int32
}

// add folds v into cell i with op.
func (g *coreGather[T]) add(i int, v T, op semiring.Op[T]) {
	if !g.seen[i] {
		g.seen[i] = true
		g.touched = append(g.touched, int32(i))
	}
	g.acc[i] = op.Combine(g.acc[i], v)
}

// coreNode is one factorless GHD node planned for EvalCore.
type coreNode[T any] struct {
	s        semiring.Semiring[T]
	children []*Relation[T]
	dom      int
	vars     []int            // the children's variables, ascending: the binding order
	binds    [][]coreBind     // by depth: the children listing that variable
	ops      []semiring.Op[T] // by depth; nil where kept
	ids      []T              // the ops' identities
	last     int              // the depth of the last kept variable; -1 if none
	gathers  []coreGather[T]  // the eliminated depths before last, ascending
	gatherAt []int            // by depth: its index in gathers, -1 if none
	lo, hi   []int            // by child and column k: the rows agreeing on the columns before k
	leaf     []int            // by child: the index in lo of its range once every column is bound
	val      []int32          // by depth: the bound value
	rows     []int32          // the output, in key order
	vals     []T
}

// EvalCore runs a factorless GHD node with at least two children (the
// fat core of Construction 2.8; see faq.EvalNode) attribute at a time:
// it binds the children's variables in ascending id order over their
// messages as stored, so the work is bounded by the join's AGM bound
// rather than by the chain's intermediates, and nothing is sorted. A
// child's first column is addressed through an offset array over
// domSize, later columns are galloped inside the bound range, and the
// children binding one variable leapfrog to their common values.
//
// Its answer is bit-identical to joining the children in order, then
// eliminating, innermost first, each variable outside keep (sorted) with
// op(v), and it passes the failpoints that chain would. Each leaf
// multiplies the children's values in child order. Eliminated variables
// after the last kept one fold innermost first, in key order, as
// EliminateVar folds the innermost column. Each one ahead of the last
// kept one folds its values in ascending order into a dense accumulator
// over the kept variables after it, which is EliminateVar's stable
// re-layout order; these accumulators nest, each flushing into the next
// outer one, and the outermost into the output in key order. ok is
// false, and nothing ran, when the node must take the chain: fewer than
// two children, a product aggregate, a cell outside [0, domSize),
// offset arrays and accumulators over FuseSpan·Σ|child| cells, or a
// variable after the first that no child lists beside an earlier one.
func EvalCore[T any](s semiring.Semiring[T], children []*Relation[T], keep []int,
	op func(v int) semiring.Op[T], domSize int) (out *Relation[T], ok bool, err error) {
	nd := planCore(s, children, keep, op, domSize)
	if nd == nil {
		return nil, false, nil
	}
	if err := chainSites(len(children), nd.ops); err != nil {
		return nil, true, err
	}
	return nd.run(), true, nil
}

// chainSites passes the failpoints of the Join + AggregateOut chain over
// that many children, eliminating each variable with a non-nil op:
// relation.join and relation.build per join, then relation.eliminate per
// elimination.
func chainSites[T any](children int, ops []semiring.Op[T]) error {
	for range children {
		joinSite.Inject()
		buildSite.Inject()
	}
	for _, o := range ops {
		if o == nil {
			continue
		}
		if err := eliminateSite.Hit(nil); err != nil {
			return err
		}
	}
	return nil
}

// spanWithin returns dom^m, or -1 when it exceeds budget; it checks
// before each product, so the span never overflows.
func spanWithin(m, dom, budget int) int {
	span := 1
	for range m {
		if span > budget/dom {
			return -1
		}
		span *= dom
	}
	if span > budget {
		return -1
	}
	return span
}

// planCore returns nil for a node that takes the chain (see EvalCore).
func planCore[T any](s semiring.Semiring[T], children []*Relation[T], keep []int,
	op func(v int) semiring.Op[T], dom int) *coreNode[T] {
	if len(children) < 2 || dom <= 0 {
		return nil
	}
	var vars []int
	budget := 0
	for _, c := range children {
		if !inDomain(c, dom) {
			return nil
		}
		vars = hypergraph.UnionSorted(vars, c.schema)
		budget += c.Len()
	}
	budget *= FuseSpan
	a := len(vars)
	nd := &coreNode[T]{s: s, children: children, dom: dom, vars: vars, binds: make([][]coreBind, a),
		ops: make([]semiring.Op[T], a), ids: make([]T, a), last: -1,
		gatherAt: make([]int, a), leaf: make([]int, len(children)), val: make([]int32, a)}
	for d, x := range vars {
		nd.gatherAt[d] = -1
		if hypergraph.ContainsSorted(keep, x) {
			nd.last = d
		} else if o := op(x); o.IsProduct() || !s.IsZero(o.Identity()) {
			return nil
		} else {
			nd.ops[d], nd.ids[d] = o, o.Identity()
		}
	}
	for d := 0; d < nd.last; d++ {
		if nd.ops[d] == nil {
			continue
		}
		g := coreGather[T]{depth: d}
		for _, o := range nd.ops[d+1 : nd.last+1] {
			if o == nil {
				g.width++
			}
		}
		if g.span = spanWithin(g.width, dom, budget); g.span < 0 {
			return nil
		}
		budget -= g.span
		g.acc, g.seen = make([]T, g.span), make([]bool, g.span)
		for i := range g.acc {
			g.acc[i] = nd.ids[d]
		}
		nd.gatherAt[d], nd.gathers = len(nd.gathers), append(nd.gathers, g)
	}
	for i, c := range children {
		k, at := len(c.schema), len(nd.lo)
		nd.lo, nd.hi = append(nd.lo, make([]int, k+1)...), append(nd.hi, make([]int, k+1)...)
		nd.hi[at], nd.leaf[i] = c.Len(), at+k
		if k == 0 {
			continue
		}
		// off[x] is the first row whose first cell is ≥ x, for x ≤ dom.
		if budget -= dom + 1; budget < 0 {
			return nil
		}
		off := make([]int32, dom+1)
		for y := range c.Len() {
			off[c.rows[y*k]+1]++
		}
		for x := range dom {
			off[x+1] += off[x]
		}
		for col, x := range c.schema {
			d, _ := slices.BinarySearch(vars, x)
			nd.binds[d] = append(nd.binds[d], coreBind{rows: c.rows, off: off, a: k, col: col, at: at + col})
			off = nil
		}
	}
	// A variable that no child lists beside an earlier one is bound to
	// every value its children list, once per binding before it: a cross
	// product that the chain's join order may never build.
	for _, bs := range nd.binds[min(1, a):] {
		if !slices.ContainsFunc(bs, func(b coreBind) bool { return b.col > 0 }) {
			return nil
		}
	}
	return nd
}

// run walks the node and returns its message over the kept variables.
func (nd *coreNode[T]) run() *Relation[T] {
	var schema []int
	for d, x := range nd.vars {
		if nd.ops[d] == nil {
			schema = append(schema, x)
		}
	}
	for _, c := range nd.children {
		if c.Len() == 0 {
			return fromSorted[T](schema, nil, nil)
		}
	}
	if nd.last >= 0 {
		nd.head(0)
	} else if v, ok := nd.fold(0); ok {
		nd.vals = append(nd.vals, v)
	}
	return fromSorted(schema, nd.rows, nd.vals)
}

// head binds depth d ≤ last to each of its values in turn. Below last it
// descends; at last the folded tail lands in the innermost accumulator,
// or, with none, in the output. An eliminated depth flushes its
// accumulator once its values run out.
func (nd *coreNode[T]) head(d int) {
	for x, ok := nd.first(d); ok; x, ok = nd.seek(d, x+1) {
		if d < nd.last {
			nd.head(d + 1)
		} else if v, ok := nd.fold(d + 1); ok {
			nd.deposit(v)
		}
	}
	if g := nd.gatherAt[d]; g >= 0 {
		nd.flush(g)
	}
}

// fold returns the value of the bound prefix below depth d > last: at a
// leaf, the children's values multiplied in child order, with a Zero
// product dropped before the next ⊗ (as Join drops it); otherwise the
// fold of depth d's values in ascending order (as EliminateVar folds
// the innermost column). ok is false for Zero, which the chain drops.
func (nd *coreNode[T]) fold(d int) (T, bool) {
	s := nd.s
	if d == len(nd.vars) {
		v := s.One()
		for i, c := range nd.children {
			if v = s.Mul(v, c.vals[nd.lo[nd.leaf[i]]]); s.IsZero(v) {
				return v, false
			}
		}
		return v, true
	}
	acc := nd.ids[d]
	for x, ok := nd.first(d); ok; x, ok = nd.seek(d, x+1) {
		if v, ok := nd.fold(d + 1); ok {
			acc = nd.ops[d].Combine(acc, v)
		}
	}
	return acc, !s.IsZero(acc)
}

// key is the mixed-radix index of the values bound at the kept depths
// strictly between from and to.
func (nd *coreNode[T]) key(from, to int) (i int) {
	for d := from + 1; d < to; d++ {
		if nd.ops[d] == nil {
			i = i*nd.dom + int(nd.val[d])
		}
	}
	return i
}

// deposit lands the value of the bound kept prefix.
func (nd *coreNode[T]) deposit(v T) {
	if len(nd.gathers) == 0 {
		nd.rows, nd.vals = append(nd.rows, nd.val[:nd.last+1]...), append(nd.vals, v)
		return
	}
	g := &nd.gathers[len(nd.gathers)-1]
	g.add(nd.key(g.depth, nd.last+1), v, nd.ops[g.depth])
}

// flush empties gather g's touched cells, dropping Zero ones, into the
// next outer accumulator or, from the outermost, into the output in key
// order: every depth before the outermost is kept and bound.
func (nd *coreNode[T]) flush(g int) {
	in := &nd.gathers[g]
	if g == 0 {
		slices.Sort(in.touched)
	}
	for _, i := range in.touched {
		v := in.acc[i]
		in.acc[i], in.seen[i] = nd.ids[in.depth], false
		if nd.s.IsZero(v) {
			continue
		}
		if g > 0 {
			out := &nd.gathers[g-1]
			out.add(nd.key(out.depth, in.depth)*in.span+int(i), v, nd.ops[out.depth])
			continue
		}
		nd.rows = append(nd.rows, nd.val[:in.depth]...)
		n := len(nd.rows)
		nd.rows = slices.Grow(nd.rows, in.width)[:n+in.width]
		for k, x := n+in.width-1, int(i); k >= n; k, x = k-1, x/nd.dom {
			nd.rows[k] = int32(x % nd.dom)
		}
		nd.vals = append(nd.vals, v)
	}
	in.touched = in.touched[:0]
}

// first opens depth d at the start of each binding's range and binds its
// least value.
func (nd *coreNode[T]) first(d int) (int32, bool) {
	for k := range nd.binds[d] {
		b := &nd.binds[d][k]
		b.cur, b.hi = nd.lo[b.at], nd.hi[b.at]
	}
	return nd.seek(d, 0)
}

// seek binds depth d to the least value ≥ x that every child listing
// its variable has in its bound range, leapfrogging among them, and
// narrows each one's range to that value's rows. ok is false when no
// such value is left.
func (nd *coreNode[T]) seek(d int, x int32) (int32, bool) {
	bs := nd.binds[d]
	for k, agreed := 0, 0; agreed < len(bs); {
		b := &bs[k]
		if b.off != nil {
			b.cur = int(b.off[x])
		} else {
			b.cur = gallopCol(b.rows, b.a, b.col, b.cur, b.hi, x)
		}
		if b.cur >= b.hi {
			return 0, false
		}
		if y := b.rows[b.cur*b.a+b.col]; y != x {
			x, agreed = y, 1
		} else {
			agreed++
		}
		if k++; k == len(bs) {
			k = 0
		}
	}
	for k := range bs {
		b := &bs[k]
		end := b.cur + 1 // a last column lists each value once
		if b.off != nil {
			end = int(b.off[x+1])
		} else if b.col < b.a-1 {
			end = gallopCol(b.rows, b.a, b.col, end, b.hi, x+1)
		}
		nd.lo[b.at+1], nd.hi[b.at+1], b.cur = b.cur, end, end
	}
	nd.val[d] = x
	return x, true
}

// gallopCol returns the first row in [lo, hi) whose cell at col is ≥ x,
// the rows being sorted on col across that range, by exponential
// probing then binary search: O(log distance).
func gallopCol(rows []int32, a, col, lo, hi int, x int32) int {
	if lo >= hi || rows[lo*a+col] >= x {
		return lo
	}
	prev, step := lo, 1
	for lo+step < hi && rows[(lo+step)*a+col] < x {
		prev, step = lo+step, step*2
	}
	l, h := prev+1, min(lo+step, hi)
	for l < h {
		m := int(uint(l+h) >> 1)
		if rows[m*a+col] < x {
			l = m + 1
		} else {
			h = m
		}
	}
	return l
}
