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
	k := &keyOrder{rows: r.rows, arity: a, cols: cols, pr: radixSortPacked(pr)}
	if len(cols) > keys.MaxPacked {
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
// matching b rows, and the pairs are emitted in a's row order, each run
// in b's row order, into the Builder. With parts > 1 the emission splits
// into blocks of a's rows on the pool, concatenated in block order, so
// the Builder sees the same sequence at every worker count.
func joinOrdered[T any](s semiring.Semiring[T], a, b *Relation[T], ak, bk *keyOrder, parts int) *Relation[T] {
	outSchema := hypergraph.UnionSorted(a.schema, b.schema)
	srcs := outputSrcs(outSchema, a.schema, b.schema)
	runs := matchRuns(ak, bk)
	na := a.Len()
	if parts <= 1 {
		rows, vals := emitRuns(s, a, b, bk.pr, runs, srcs, 0, na)
		return buildFrom(s, outSchema, rows, vals)
	}
	rows, vals := collectChunks[T](parts, len(outSchema), func(i int) ([]int32, []T) {
		return emitRuns(s, a, b, bk.pr, runs, srcs, na*i/parts, na*(i+1)/parts)
	})
	return buildFrom(s, outSchema, rows, vals)
}

// emitRuns crosses a's rows [lo, hi) with their matching runs of b
// (positions into bpr) and returns the joined rows and values, presized
// to the exact pair count.
func emitRuns[T any](s semiring.Semiring[T], a, b *Relation[T], bpr []packedRow, runs []run, srcs []colSrc,
	lo, hi int) ([]int32, []T) {
	pairs := 0
	for _, r := range runs[lo:hi] {
		pairs += int(r.hi - r.lo)
	}
	w := len(srcs)
	rows := make([]int32, 0, pairs*w)
	vals := make([]T, 0, pairs)
	for x := lo; x < hi; x++ {
		r := runs[x]
		if r.lo == r.hi {
			continue
		}
		ta := a.Tuple(x)
		for _, e := range bpr[r.lo:r.hi] {
			v := s.Mul(a.vals[x], b.vals[e.idx])
			if s.IsZero(v) {
				continue
			}
			tb := b.Tuple(int(e.idx))
			n := len(rows)
			rows = rows[:n+w]
			for k, sc := range srcs {
				if sc.fromA {
					rows[n+k] = ta[sc.col]
				} else {
					rows[n+k] = tb[sc.col]
				}
			}
			vals = append(vals, v)
		}
	}
	return rows, vals
}

// SortedIndex is a reusable build side of the non-prefix join: b's key
// order on the shared variables, pinned to the exact row buffer it
// ordered. PatchAdd-produced relations share their input's row buffer,
// so a standing view (internal/delta) can probe one index across any
// number of value-only updates and rebuild it only when a fallback merge
// rewrites the rows, turning the O(|b| log |b|) build side of every
// point-delta join into a one-time cost.
type SortedIndex struct {
	shared []int
	order  *keyOrder
}

// BuildSortedIndex orders b's rows on the given shared variables (a
// sorted subset of b's schema). It returns nil when there is nothing to
// order (no shared variable, an empty b, or a variable outside b's
// schema); JoinIndexed then falls back to the one-shot Join.
func BuildSortedIndex[T any](b *Relation[T], shared []int) *SortedIndex {
	if len(shared) == 0 || b.Len() == 0 {
		return nil
	}
	bCols, err := columnsOf(b.schema, shared)
	if err != nil {
		return nil
	}
	return &SortedIndex{shared: slices.Clone(shared), order: orderOn(b, bCols)}
}

// IndexValidFor reports whether ix still serves joins against b on the
// given shared variables: the same key over the identical row buffer.
// Value-only updates (PatchAdd fast path) keep an index valid; any merge
// that allocates new rows invalidates it.
func IndexValidFor[T any](ix *SortedIndex, b *Relation[T], shared []int) bool {
	if ix == nil || len(ix.order.rows) != len(b.rows) {
		return false
	}
	if len(b.rows) != 0 && &ix.order.rows[0] != &b.rows[0] {
		return false
	}
	return slices.Equal(ix.shared, shared)
}

// JoinIndexed returns Join(s, a, b), walking a's key order against a
// prebuilt index of b instead of ordering b afresh: O(|a| log |b| +
// output) per call, since the walk gallops through b. Join emits no
// duplicate rows, so the Builder canonicalizes the output to exactly
// Join's. An index that no longer serves b (or was never built) falls
// back to the one-shot Join.
func JoinIndexed[T any](s semiring.Semiring[T], a, b *Relation[T], ix *SortedIndex) *Relation[T] {
	shared := hypergraph.IntersectSorted(a.schema, b.schema)
	if !IndexValidFor(ix, b, shared) {
		return Join(s, a, b)
	}
	joinSite.Inject()
	aCols, _ := columnsOf(a.schema, shared)
	return joinOrdered(s, a, b, orderOn(a, aCols), ix.order, 1)
}
