package relation

import (
	"cmp"
	"slices"

	"repro/internal/hypergraph"
	"repro/internal/keys"
	"repro/internal/semiring"
)

// keyOrder lists a relation's rows in ascending order of key columns
// that need not lead its schema: the one structure behind every
// non-prefix Join, Semijoin and EliminateVar, and behind SortedIndex.
// Each entry packs the first keys.MaxPacked key columns into an
// order-preserving uint64 beside the row index. Entries are ordered by
// (packed key, remaining key columns, row index), so rows with equal
// keys keep their row order.
type keyOrder struct {
	rows  []int32 // the ordered relation's row buffer
	arity int
	cols  []int // key columns, in key order
	pr    []packedRow
}

// orderOn orders r's rows on the key columns cols (at least one): a
// stable radix sort on the packed head, then, for keys wider than
// keys.MaxPacked, a stable sort of each run of equal heads on the
// remaining columns.
func orderOn[T any](r *Relation[T], cols []int) *keyOrder {
	a, n := len(r.schema), r.Len()
	head := cols[:min(len(cols), keys.MaxPacked)]
	pr := make([]packedRow, n)
	for i := range pr {
		pr[i] = packedRow{keys.PackCols(r.rows[i*a:], head), int32(i)}
	}
	return sortedOrder(r.rows, a, cols, pr)
}

// sortedOrder sorts pr, entries of rows listed in row order, into the
// key order on cols.
func sortedOrder(rows []int32, arity int, cols []int, pr []packedRow) *keyOrder {
	k := &keyOrder{rows: rows, arity: arity, cols: cols, pr: radixSortPacked(pr)}
	if n := len(pr); len(cols) > keys.MaxPacked {
		for i := 0; i < n; {
			j := i + 1
			for j < n && k.pr[j].key == k.pr[i].key {
				j++
			}
			if j-i > 1 {
				slices.SortStableFunc(k.pr[i:j], func(x, y packedRow) int { return k.compareTail(x, k, y) })
			}
			i = j
		}
	}
	return k
}

// compare orders entry x of k against entry y of o on the key; k and o
// list the same key variables.
func (k *keyOrder) compare(x int, o *keyOrder, y int) int {
	p, q := k.pr[x], o.pr[y]
	if p.key != q.key || len(k.cols) <= keys.MaxPacked {
		return cmp.Compare(p.key, q.key)
	}
	return k.compareTail(p, o, q)
}

// compareTail orders two rows on the key columns past the packed head.
func (k *keyOrder) compareTail(p packedRow, o *keyOrder, q packedRow) int {
	rp := k.rows[int(p.idx)*k.arity:]
	rq := o.rows[int(q.idx)*o.arity:]
	for c := keys.MaxPacked; c < len(k.cols); c++ {
		if u, v := rp[k.cols[c]], rq[o.cols[c]]; u != v {
			return cmp.Compare(u, v)
		}
	}
	return 0
}

// gallop returns the first position in [lo, len(k.pr)) whose key is
// ≥ entry y of o, by exponential probing then binary search: O(log
// distance), so a short probe side skips through a long build side.
func (k *keyOrder) gallop(lo int, o *keyOrder, y int) int {
	n := len(k.pr)
	if lo >= n || k.compare(lo, o, y) >= 0 {
		return lo
	}
	prev, step := lo, 1
	next := lo + step
	for next < n && k.compare(next, o, y) < 0 {
		prev = next
		step *= 2
		next = lo + step
	}
	lo, hi := prev+1, min(next, n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k.compare(mid, o, y) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// runEnd returns the end of the run of entries whose key equals entry i's.
func (k *keyOrder) runEnd(i int) int {
	j := i + 1
	for j < len(k.pr) && k.compare(j, k, i) == 0 {
		j++
	}
	return j
}

// run is a half-open range of positions in a build side's keyOrder.
type run struct{ lo, hi int32 }

// matchRuns merge-walks the probe order p against the build order b and
// returns, indexed by probe row, the run of b's entries sharing that
// row's key (empty when none does).
func matchRuns(p, b *keyOrder) []run {
	runs := make([]run, len(p.pr))
	i, j := 0, 0
	for i < len(p.pr) && j < len(b.pr) {
		switch c := p.compare(i, b, j); {
		case c < 0:
			i = p.gallop(i+1, b, j)
		case c > 0:
			j = b.gallop(j+1, p, i)
		default:
			iEnd, jEnd := p.runEnd(i), b.runEnd(j)
			for _, e := range p.pr[i:iEnd] {
				runs[e.idx] = run{int32(j), int32(jEnd)}
			}
			i, j = iEnd, jEnd
		}
	}
	return runs
}

// joinOrdered is the non-prefix join shared by Join and JoinIndexed: a
// merge-walk of the operands' key orders finds each a row's run of
// matching b rows, and emitJoin crosses them.
func joinOrdered[T any](s semiring.Semiring[T], a, b *Relation[T], ak, bk *keyOrder) *Relation[T] {
	return emitJoin(s, a, b, bk.pr, matchRuns(ak, bk), len(ak.cols))
}

// emitJoin crosses a's rows with their runs of b (positions into bpr;
// shared is the number of join variables) in a's row order, each run in
// b's row order, into one buffer sized by the runs' pair count. When
// a's variables lead the output schema that sequence is already sorted
// and duplicate-free; otherwise the Builder sorts it.
func emitJoin[T any](s semiring.Semiring[T], a, b *Relation[T], bpr []packedRow, runs []run, shared int) *Relation[T] {
	outSchema := hypergraph.UnionSorted(a.schema, b.schema)
	srcs := outputSrcs(outSchema, a.schema, b.schema)
	w, pairs := len(outSchema), 0
	for _, r := range runs {
		pairs += int(r.hi - r.lo)
	}
	rows, vals := make([]int32, pairs*w), make([]T, pairs)
	n := 0
	for x, r := range runs {
		ta := a.Tuple(x)
		for _, e := range bpr[r.lo:r.hi] {
			v := s.Mul(a.vals[x], b.vals[e.idx])
			if s.IsZero(v) {
				continue
			}
			tb := b.Tuple(int(e.idx))
			row := rows[n*w : (n+1)*w]
			for k, sc := range srcs {
				if sc.fromA {
					row[k] = ta[sc.col]
				} else {
					row[k] = tb[sc.col]
				}
			}
			vals[n] = v
			n++
		}
	}
	return joinOutput(s, outSchema, restBefore(a.schema, b.schema, shared), rows[:n*w], vals[:n])
}

// SortedIndex is a reusable build side of the non-prefix join: b's key
// order on the shared variables, pinned to the exact row buffer it
// ordered. A standing view (internal/delta) builds one per probe site
// over a retained relation's base, which commits leave alone, and
// carries it across every fold of the view's tail into that base: a
// value-only MergeAdd shares the row buffer, so the index still serves
// the result, and a merge that inserts or drops rows is followed by
// RebaseIndex, which does not re-sort. The build side of a point-delta
// join is paid once per site.
// When the shared variables lead b's schema, b's rows are the key order
// and the index holds no entries.
type SortedIndex struct {
	shared []int
	rows   []int32   // the row buffer the index serves
	order  *keyOrder // nil when the key leads the schema
}

// BuildSortedIndex orders b's rows on the given shared variables (a
// sorted subset of b's schema). It returns nil when there is nothing to
// order (no shared variable, an empty b, or a variable outside b's
// schema); JoinIndexed then falls back to the one-shot Join.
func BuildSortedIndex[T any](b *Relation[T], shared []int) *SortedIndex {
	if len(shared) == 0 || b.Len() == 0 {
		return nil
	}
	bCols, err := Columns(b.schema, shared)
	if err != nil {
		return nil
	}
	ix := &SortedIndex{shared: slices.Clone(shared), rows: b.rows}
	if !isIdentPrefix(bCols) {
		ix.order = orderOn(b, bCols)
	}
	return ix
}

// IndexValidFor reports whether ix still serves joins against b on the
// given shared variables: the same key over the identical row buffer.
// A value-only MergeAdd keeps an index valid; a merge that inserts or
// drops rows allocates new ones, and RebaseIndex carries the index over.
func IndexValidFor[T any](ix *SortedIndex, b *Relation[T], shared []int) bool {
	if ix == nil || len(ix.rows) != len(b.rows) {
		return false
	}
	if len(b.rows) != 0 && &ix.rows[0] != &b.rows[0] {
		return false
	}
	return slices.Equal(ix.shared, shared)
}

// RebaseIndex carries ix, an index of old, over to nw = MergeAdd(s, old,
// d): the result equals BuildSortedIndex(nw, shared) entry for entry and
// is pinned to nw's rows. Rows d cancelled drop out, surviving rows keep
// their order under shifted ids, and d's new rows are merged in at their
// key positions: one gallop of d through old, one remapping pass over
// the entries and a gallop per new row, O(n + k log n) with no re-sort.
// It returns ix when nw shares old's rows and nil when nw is empty; an
// index without entries is re-pinned to nw in O(1). An ix not of old, or
// a d and nw that do not match it, get a fresh BuildSortedIndex instead,
// and rebuilt reports it.
func RebaseIndex[T any](ix *SortedIndex, old, d, nw *Relation[T]) (nix *SortedIndex, rebuilt bool) {
	if ix == nil || IndexValidFor(ix, nw, ix.shared) {
		return ix, false
	}
	n, nn, w := old.Len(), nw.Len(), len(old.schema)
	if nn == 0 {
		return nil, false
	}
	if !IndexValidFor(ix, old, ix.shared) || !slices.Equal(d.schema, old.schema) || !slices.Equal(nw.schema, old.schema) {
		return BuildSortedIndex(nw, ix.shared), true
	}
	if ix.order == nil {
		return &SortedIndex{shared: ix.shared, rows: nw.rows}, false
	}
	cols := ix.order.cols
	head := cols[:min(len(cols), keys.MaxPacked)]
	// at[i] is old row i's position in nw, or -1 minus that position
	// when the merge dropped it; shift counts inserts minus drops so far.
	at := make([]int32, n)
	var added []packedRow
	src, shift := 0, 0
	for j, lo := 0, 0; j < d.Len(); j++ {
		row := d.Tuple(j)
		p := gallopShared(old.rows, w, n, lo, row, w)
		for ; src < p; src++ {
			at[src] = int32(src + shift)
		}
		q := p + shift
		kept := q < nn && compareShared(nw.Tuple(q), row, w) == 0
		switch {
		case p < n && compareShared(old.Tuple(p), row, w) == 0:
			lo, src = p+1, p+1
			if at[p] = int32(q); !kept {
				at[p] = int32(-1 - q)
				shift--
			}
		case kept:
			lo = p
			added = append(added, packedRow{keys.PackCols(nw.rows[q*w:], head), int32(q)})
			shift++
		default:
			return BuildSortedIndex(nw, ix.shared), true
		}
	}
	for ; src < n; src++ {
		at[src] = int32(src + shift)
	}
	if n+shift != nn {
		return BuildSortedIndex(nw, ix.shared), true
	}
	ins := sortedOrder(nw.rows, w, cols, added)
	from := ix.order
	out := make([]packedRow, nn)
	o, i := 0, 0
	for y, e := range ins.pr {
		// Carry the old entries before e: earlier in key order, or equal
		// on the key with an earlier position in nw.
		g := from.gallop(i, ins, y)
		for ; g < len(from.pr) && from.compare(g, ins, y) == 0; g++ {
			if q := at[from.pr[g].idx]; max(q, -1-q) > e.idx {
				break
			}
		}
		o = carryEntries(out, o, from.pr[i:g], at)
		out[o] = e
		o, i = o+1, g
	}
	carryEntries(out, o, from.pr[i:], at)
	return &SortedIndex{shared: ix.shared, rows: nw.rows, order: &keyOrder{rows: nw.rows, arity: w, cols: cols, pr: out}}, false
}

// carryEntries writes seg's entries whose rows survive into out from o,
// renumbered by RebaseIndex's row map at, and returns the next position.
func carryEntries(out []packedRow, o int, seg []packedRow, at []int32) int {
	for _, e := range seg {
		if q := at[e.idx]; q >= 0 {
			out[o] = packedRow{e.key, q}
			o++
		}
	}
	return o
}

// JoinIndexed returns Join(s, a, b), walking a's key order against a
// prebuilt index of b instead of ordering b afresh: O(|a| log |b| +
// output) per call, since the walk gallops through b. A join emits no
// duplicate rows, so the output is exactly Join's whether it is already
// in order or sorted by the Builder. An index that no longer serves b
// (or was never built) falls back to the one-shot Join.
func JoinIndexed[T any](s semiring.Semiring[T], a, b *Relation[T], ix *SortedIndex) *Relation[T] {
	shared := hypergraph.IntersectSorted(a.schema, b.schema)
	if !IndexValidFor(ix, b, shared) {
		return Join(s, a, b)
	}
	joinSite.Inject()
	aCols, _ := Columns(a.schema, shared)
	if ix.order == nil {
		return joinLeading(s, a, b, aCols)
	}
	return joinOrdered(s, a, b, orderOn(a, aCols), ix.order)
}

// joinLeading is JoinIndexed when the shared variables lead b's schema,
// so b's rows are in key order already: each a row's matches are one run
// of them, found by a gallop, and reach emitJoin as joinOrdered passes
// them (a's rows in order, each run in b's row order). O(|a| log |b| +
// output).
func joinLeading[T any](s semiring.Semiring[T], a, b *Relation[T], aCols []int) *Relation[T] {
	w, n, p := len(b.schema), b.Len(), len(aCols)
	key := make([]int32, p)
	runs := make([]run, a.Len())
	var matched []packedRow // every run's rows of b, back to back
	for x := range runs {
		for i, c := range aCols {
			key[i] = a.Tuple(x)[c]
		}
		lo := len(matched)
		for y := gallopShared(b.rows, w, n, 0, key, p); y < n && compareShared(b.Tuple(y), key, p) == 0; y++ {
			matched = append(matched, packedRow{idx: int32(y)})
		}
		runs[x] = run{int32(lo), int32(len(matched))}
	}
	return emitJoin(s, a, b, matched, runs, p)
}

// Restrict returns the rows of b whose values on keys' variables (a
// sorted subset of b's schema) match a row of keys, with their
// annotations and in b's order: b restricted to the groups keys names.
// When keys' variables lead b's schema each key is one gallop through
// b; otherwise ix, an index of b on keys' variables, finds each key's
// run in O(log |b|), and an ix that does not serve b is built afresh.
// The cost is O(|keys| log |b| + out log out), independent of |b|'s
// unmatched rows. A variable of keys outside b's schema restricts b to
// nothing.
func Restrict[T, U any](b *Relation[T], keys *Relation[U], ix *SortedIndex) *Relation[T] {
	shared := keys.schema
	bCols, err := Columns(b.schema, shared)
	if err != nil || keys.Len() == 0 || b.Len() == 0 {
		return Empty[T](b.schema)
	}
	if len(shared) == 0 {
		return b
	}
	w, n, p := len(b.schema), b.Len(), len(shared)
	var rows []int32
	var vals []T
	if isIdentPrefix(bCols) {
		for k, lo := 0, 0; k < keys.Len(); k++ {
			key := keys.Tuple(k)
			for lo = gallopShared(b.rows, w, n, lo, key, p); lo < n && compareShared(b.Tuple(lo), key, p) == 0; lo++ {
				rows = append(rows, b.Tuple(lo)...)
				vals = append(vals, b.vals[lo])
			}
		}
		return fromSorted(b.schema, rows, vals)
	}
	if !IndexValidFor(ix, b, shared) {
		ix = BuildSortedIndex(b, shared)
	}
	var at []int32
	for _, r := range matchRuns(orderOn(keys, identCols(p)), ix.order) {
		for _, e := range ix.order.pr[r.lo:r.hi] {
			at = append(at, e.idx)
		}
	}
	slices.Sort(at)
	for _, i := range at {
		rows = append(rows, b.Tuple(int(i))...)
		vals = append(vals, b.vals[i])
	}
	return fromSorted(b.schema, rows, vals)
}

// identCols returns the column list 0, 1, …, n-1.
func identCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}
