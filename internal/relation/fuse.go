package relation

import (
	"slices"

	"repro/internal/exec"
	"repro/internal/hypergraph"
	"repro/internal/semiring"
)

// FuseSpan is c in EvalFused's size bound: its dense arrays hold at most
// FuseSpan·(|factor| + Σ|child|) cells in all. On a path node of 4 096
// rows keyed off its second column (2-CPU Xeon, one worker), the walk
// took 0.8× the chain's time at a span of 4·(rows in) and 1.3× at 8·.
const FuseSpan = 4

// fusedNode is one GHD node planned for EvalFused.
type fusedNode[T any] struct {
	s            semiring.Semiring[T]
	f            *Relation[T]
	dom          int
	msgs         [][]T            // child messages, dense over dom^arity, Zero where absent
	mcols        [][]int          // the factor columns addressing each message
	ops          []semiring.Op[T] // by factor column; nil where kept
	ids          []T              // the ops' identities
	kcols        []int            // kept columns
	last, gather int              // the last kept column; the one eliminated before it; -1 if none
	acc          []T              // dense keep accumulator when gather ≥ 0
}

// EvalFused runs a GHD node as one walk over factor's rows (see
// faq.EvalNode). Its answer is bit-identical to joining the children in
// order, then eliminating, innermost first, each factor variable outside
// keep (sorted) with op(v), and it passes the failpoints that chain
// would. ok is false, and nothing ran, when the node must take the chain.
func EvalFused[T any](s semiring.Semiring[T], factor *Relation[T], children []*Relation[T], keep []int,
	op func(v int) semiring.Op[T], domSize int) (out *Relation[T], ok bool, err error) {
	nd := planFused(s, factor, children, keep, op, domSize)
	if nd == nil {
		return nil, false, nil
	}
	for range children {
		joinSite.Inject()
		buildSite.Inject()
	}
	for _, o := range nd.ops {
		if o == nil {
			continue
		}
		if err := eliminateSite.Hit(nil); err != nil {
			return nil, true, err
		}
	}
	return nd.run(), true, nil
}

// planFused returns nil for a node that takes the chain: no factor, no
// child and nothing to eliminate, a product aggregate, more than one
// eliminated variable ahead of the last kept one, a child variable
// outside the factor, a cell outside [0, dom), or dense arrays over the
// FuseSpan bound.
func planFused[T any](s semiring.Semiring[T], f *Relation[T], children []*Relation[T], keep []int,
	op func(v int) semiring.Op[T], dom int) *fusedNode[T] {
	if f == nil || dom <= 0 || !inDomain(f, dom) {
		return nil
	}
	a, budget := len(f.schema), f.Len()
	nd := &fusedNode[T]{s: s, f: f, dom: dom, ops: make([]semiring.Op[T], a), ids: make([]T, a), last: -1, gather: -1}
	for k, x := range f.schema {
		if hypergraph.ContainsSorted(keep, x) {
			nd.kcols, nd.last = append(nd.kcols, k), k
		} else if o := op(x); o.IsProduct() || !s.IsZero(o.Identity()) {
			return nil
		} else {
			nd.ops[k], nd.ids[k] = o, o.Identity()
		}
	}
	if len(children) == 0 && nd.last == a-1 {
		return nil // nothing to join or fold: the chain hands back factor itself
	}
	for k := 0; k < nd.last; k++ {
		if nd.ops[k] != nil && nd.gather >= 0 {
			return nil
		} else if nd.ops[k] != nil {
			nd.gather = k
		}
	}
	for _, c := range children {
		budget += c.Len()
	}
	budget *= FuseSpan
	// dense returns a dom^m array filled with v, or nil when it would
	// take the budget past zero; it checks before each product, so the
	// span never overflows.
	dense := func(m int, v T) []T {
		span := 1
		for range m {
			if span > budget/dom {
				return nil
			}
			span *= dom
		}
		if span > budget {
			return nil
		}
		budget -= span
		arr := make([]T, span)
		for i := range arr {
			arr[i] = v
		}
		return arr
	}
	if nd.gather >= 0 {
		if nd.acc = dense(len(nd.kcols), nd.ids[nd.gather]); nd.acc == nil {
			return nil
		}
	}
	for _, c := range children {
		cols, err := Columns(f.schema, c.schema)
		if err != nil || !inDomain(c, dom) {
			return nil
		}
		m := dense(len(cols), s.Zero())
		if m == nil {
			return nil
		}
		for y := range c.Len() {
			i := 0
			for _, x := range c.Tuple(y) {
				i = i*dom + int(x)
			}
			m[i] = c.vals[y]
		}
		nd.msgs, nd.mcols = append(nd.msgs, m), append(nd.mcols, cols)
	}
	return nd
}

// inDomain reports whether every cell of r lies in [0, dom), reading the
// Builder's recorded range when there is one.
func inDomain[T any](r *Relation[T], dom int) bool {
	if lo, hi, ok := r.ValueRange(); ok {
		return lo >= 0 && int(hi) < dom
	}
	for _, x := range r.rows {
		if x < 0 || int(x) >= dom {
			return false
		}
	}
	return true
}

// address is the mixed-radix index of row's cells at cols, the first
// most significant.
func address(row []int32, cols []int, dom int) (i int) {
	for _, c := range cols {
		i = i*dom + int(row[c])
	}
	return i
}

// run walks the factor. When keep is a prefix, the rows split into blocks
// at keep-group boundaries (prefixCuts) on the pool, and each block writes
// its own range of one buffer, sized by a bound on its group count read
// off its first and last rows. Otherwise one walk fills the dense
// accumulator, which is read out in key order.
func (nd *fusedNode[T]) run() *Relation[T] {
	f, n, p := nd.f, nd.f.Len(), len(nd.kcols)
	schema := make([]int, p)
	for i, k := range nd.kcols {
		schema[i] = f.schema[k]
	}
	if nd.gather >= 0 {
		nd.walk(0, n, nil, nil)
		var rows []int32
		var vals []T
		cell := make([]int32, p)
		for i, v := range nd.acc {
			if nd.s.IsZero(v) {
				continue
			}
			for k, x := p-1, i; k >= 0; k, x = k-1, x/nd.dom {
				cell[k] = int32(x % nd.dom)
			}
			rows, vals = append(rows, cell...), append(vals, v)
		}
		return fromSorted(schema, rows, vals)
	}
	parts, cuts, a := 1, []int{0, n}, len(f.schema)
	if p > 0 && parallelParts(n) > 1 {
		parts = parallelParts(n)
		cuts = prefixCuts(f, p, parts)
	}
	// A block of k rows holds at most one group when nothing is kept, at
	// most one per value of the first keep column between its first and
	// last row when one is kept, and at most k otherwise; closeGaps packs
	// what the bound leaves over.
	off, wrote := make([]int, parts+1), make([]int, parts)
	for i := range parts {
		lo, hi := cuts[i], cuts[i+1]
		groups := hi - lo
		if p == 0 {
			groups = min(groups, 1)
		} else if p == 1 && groups > 0 {
			groups = min(groups, int(f.rows[(hi-1)*a]-f.rows[lo*a])+1)
		}
		off[i+1] = off[i] + groups
	}
	rows, vals := make([]int32, off[parts]*p), make([]T, off[parts])
	exec.Default().Map(parts, func(i int) {
		wrote[i] = nd.walk(cuts[i], cuts[i+1], rows[off[i]*p:], vals[off[i]:])
	})
	m := closeGaps(rows, vals, p, off, wrote)
	return fromSorted(schema, rows[:m*p], vals[:m])
}

// walk folds rows [lo, hi) of the factor, each multiplied by its child
// values; a product that turns Zero drops the row before the next ⊗, as
// Join drops it. acc[k] is the open fold eliminating column k > last,
// grouped on the columns before k. A row that differs from the previous
// surviving one at column j closes the folds past j, innermost first,
// each carrying a non-Zero result one level out (EliminateVar drops Zero
// groups). A closed keep group lands in rows and vals, counted in the
// result, or in the dense accumulator when gather ≥ 0.
func (nd *fusedNode[T]) walk(lo, hi int, rows []int32, vals []T) int {
	s, f, ops, last, p := nd.s, nd.f, nd.ops, nd.last, len(nd.kcols)
	a, out, acc := len(f.schema), 0, slices.Clone(nd.ids)
	sink := func(row []int32, v T) {
		if nd.gather < 0 {
			copy(rows[out*p:], row[:p])
			vals[out], out = v, out+1
			return
		}
		i := address(row, nd.kcols, nd.dom)
		nd.acc[i] = ops[nd.gather].Combine(nd.acc[i], v)
	}
	closeTo := func(row []int32, to int) {
		for k := a - 1; k >= to; k-- {
			g := acc[k]
			if acc[k] = nd.ids[k]; s.IsZero(g) {
				continue
			} else if k-1 > last {
				acc[k-1] = ops[k-1].Combine(acc[k-1], g)
			} else {
				sink(row, g)
			}
		}
	}
	var prev []int32
next:
	for x := lo; x < hi; x++ {
		row, v := f.rows[x*a:(x+1)*a], f.vals[x]
		for i, m := range nd.msgs {
			c := m[address(row, nd.mcols[i], nd.dom)]
			if s.IsZero(c) {
				continue next
			}
			if v = s.Mul(v, c); s.IsZero(v) {
				continue next
			}
		}
		if prev != nil {
			j := 0
			for j < a && row[j] == prev[j] {
				j++
			}
			closeTo(prev, max(j+1, last+1))
		}
		if last == a-1 {
			sink(row, v)
		} else {
			acc[a-1] = ops[a-1].Combine(acc[a-1], v)
		}
		prev = row
	}
	if prev != nil {
		closeTo(prev, last+1)
	}
	return out
}
