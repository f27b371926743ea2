package relation

import (
	"repro/internal/fault"
	"repro/internal/hypergraph"
	"repro/internal/semiring"
)

// Chaos failpoints at the join kernel entries; both kernels return
// values with no error path, so failing modes panic (see Site.Inject).
var (
	joinSite     = fault.Register("relation.join")
	semijoinSite = fault.Register("relation.semijoin")
)

// Join and Semijoin strategy selection. Relations keep their tuples
// sorted lexicographically, so whenever the shared variables form a
// schema prefix of both operands — always the case for the star
// protocol's same-key reductions, where schemas are sorted and the
// shared variables are the smallest ids — both operands are already
// sorted by the join key and a galloping sorted-merge needs no index at
// all. Otherwise both operands are first put in key order (orderOn: a
// radix sort of packed keys) and the same galloping walk matches them;
// see joinOrdered.

// compareShared lexicographically compares the first p columns of two
// rows.
func compareShared(ra, rb []int32, p int) int {
	for k := 0; k < p; k++ {
		if ra[k] != rb[k] {
			if ra[k] < rb[k] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// gallopShared returns the first row index in [lo, n) whose leading p
// columns compare ≥ key, by exponential probing followed by binary
// search — O(log distance), the galloping scan of the sorted-merge join.
func gallopShared(rows []int32, arity, n, lo int, key []int32, p int) int {
	if lo >= n || compareShared(rows[lo*arity:], key, p) >= 0 {
		return lo
	}
	// Invariant: rows[prev] < key; probe lo+1, lo+2, lo+4, ...
	prev := lo
	step := 1
	next := lo + step
	for next < n && compareShared(rows[next*arity:], key, p) < 0 {
		prev = next
		step *= 2
		next = lo + step
	}
	lo, hi := prev+1, min(next, n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareShared(rows[mid*arity:], key, p) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// colSrc locates an output column in one of the two join operands.
type colSrc struct {
	fromA bool
	col   int
}

// outputSrcs precomputes, for each output column, which operand column
// feeds it.
func outputSrcs(outSchema, aSchema, bSchema []int) []colSrc {
	srcs := make([]colSrc, len(outSchema))
	for i, v := range outSchema {
		if j, err := Columns(aSchema, []int{v}); err == nil {
			srcs[i] = colSrc{true, j[0]}
		} else {
			j, _ := Columns(bSchema, []int{v})
			srcs[i] = colSrc{false, j[0]}
		}
	}
	return srcs
}

// isPrefixOf reports whether vs is a prefix of schema.
func isPrefixOf(vs, schema []int) bool {
	if len(vs) > len(schema) {
		return false
	}
	for i, v := range vs {
		if schema[i] != v {
			return false
		}
	}
	return true
}

// restBefore reports whether every non-shared variable of aSchema
// precedes every non-shared variable of bSchema (given len(shared)
// leading shared columns in each). When it holds, the merge join's
// generation order (shared key, a-row, b-row) is the output's
// lexicographic order and the result needs no re-sort.
func restBefore(aSchema, bSchema []int, p int) bool {
	if p == len(aSchema) || p == len(bSchema) {
		return true
	}
	return aSchema[len(aSchema)-1] < bSchema[p]
}

// Join returns the natural join a ⋈ b with annotations combined by ⊗
// (Definition 3.4 lifted to the semiring). The output schema is the
// sorted union of the input schemas.
func Join[T any](s semiring.Semiring[T], a, b *Relation[T]) *Relation[T] {
	joinSite.Inject()
	shared := hypergraph.IntersectSorted(a.schema, b.schema)
	if isPrefixOf(shared, a.schema) && isPrefixOf(shared, b.schema) {
		p := len(shared)
		if !restBefore(a.schema, b.schema, p) && restBefore(b.schema, a.schema, p) {
			a, b = b, a // ⋈ is commutative; this orientation emits sorted output
		}
		if p >= 1 {
			if parts := parallelParts(a.Len() + b.Len()); parts > 1 {
				return joinMergeParallel(s, a, b, p, parts)
			}
		}
		return joinMerge(s, a, b, p)
	}
	aCols, _ := Columns(a.schema, shared)
	bCols, _ := Columns(b.schema, shared)
	return joinOrdered(s, a, b, orderOn(a, aCols), orderOn(b, bCols), parallelParts(a.Len()+b.Len()))
}

// joinMerge is the sorted-merge join: both operands are sorted by their
// shared-column prefix, so matching key groups are found by a galloping
// two-pointer scan and crossed directly.
func joinMerge[T any](s semiring.Semiring[T], a, b *Relation[T], p int) *Relation[T] {
	outSchema := hypergraph.UnionSorted(a.schema, b.schema)
	srcs := outputSrcs(outSchema, a.schema, b.schema)
	rows, vals := joinMergeRange(s, a, b, p, srcs, len(outSchema), 0, a.Len(), 0, b.Len())
	return mergeEmit(s, outSchema, restBefore(a.schema, b.schema, p), rows, vals)
}

// joinMergeRange crosses the matching key groups of a[aLo:aHi) ×
// b[bLo:bHi) and returns the joined rows and values in generation order
// (ascending shared key, then a-row, then b-row). It is the shared core
// of the sequential merge join and of each chunk of the range-split
// parallel merge: chunk outputs concatenated in chunk order are exactly
// the sequential generation sequence, which is what makes the parallel
// path bit-identical.
func joinMergeRange[T any](s semiring.Semiring[T], a, b *Relation[T], p int, srcs []colSrc, outW,
	aLo, aHi, bLo, bHi int) ([]int32, []T) {
	aAr, bAr := len(a.schema), len(b.schema)
	cap := max(aHi-aLo, bHi-bLo)
	rows := make([]int32, 0, cap*outW)
	vals := make([]T, 0, cap)
	scratch := make([]int32, outW)

	i, j := aLo, bLo
	for i < aHi && j < bHi {
		ra := a.rows[i*aAr:]
		rb := b.rows[j*bAr:]
		c := compareShared(ra, rb, p)
		if c < 0 {
			i = gallopShared(a.rows, aAr, aHi, i+1, rb, p)
			continue
		}
		if c > 0 {
			j = gallopShared(b.rows, bAr, bHi, j+1, ra, p)
			continue
		}
		iEnd := i + 1
		for iEnd < aHi && compareShared(a.rows[iEnd*aAr:], ra, p) == 0 {
			iEnd++
		}
		jEnd := j + 1
		for jEnd < bHi && compareShared(b.rows[jEnd*bAr:], rb, p) == 0 {
			jEnd++
		}
		for x := i; x < iEnd; x++ {
			ta := a.Tuple(x)
			for y := j; y < jEnd; y++ {
				tb := b.Tuple(y)
				v := s.Mul(a.vals[x], b.vals[y])
				if s.IsZero(v) {
					continue
				}
				for k, sc := range srcs {
					if sc.fromA {
						scratch[k] = ta[sc.col]
					} else {
						scratch[k] = tb[sc.col]
					}
				}
				rows = append(rows, scratch...)
				vals = append(vals, v)
			}
		}
		i, j = iEnd, jEnd
	}
	return rows, vals
}

// mergeEmit wraps a merge join's generated rows into a relation: the
// ordered orientation is already the output's lexicographic order, the
// unordered one re-sorts through the Builder (whose ⊕-merge sees the
// rows in exactly the generation order, keeping duplicate combination
// order identical across sequential and parallel paths).
func mergeEmit[T any](s semiring.Semiring[T], outSchema []int, ordered bool, rows []int32, vals []T) *Relation[T] {
	if ordered {
		return fromSorted(outSchema, rows, vals)
	}
	return buildFrom(s, outSchema, rows, vals)
}

// buildFrom canonicalizes generated rows (laid out in outSchema's sorted
// column order) through a Builder that takes ownership of the buffers.
func buildFrom[T any](s semiring.Semiring[T], outSchema []int, rows []int32, vals []T) *Relation[T] {
	bld := NewBuilder(s, outSchema)
	bld.rows, bld.vals = rows, vals
	return bld.Build()
}

// Semijoin returns a ⋉ b (Definition 3.5 with set semantics on the
// match): the tuples of a whose projection onto the shared variables
// appears in b, annotations unchanged. This is the filtering primitive of
// the star protocol (Algorithm 1); the value-combining variant used by
// the general FAQ protocol is Join followed by Project.
func Semijoin[T any](s semiring.Semiring[T], a, b *Relation[T]) *Relation[T] {
	semijoinSite.Inject()
	shared := hypergraph.IntersectSorted(a.schema, b.schema)
	if isPrefixOf(shared, a.schema) && isPrefixOf(shared, b.schema) {
		p := len(shared)
		if p >= 1 {
			if parts := parallelParts(a.Len() + b.Len()); parts > 1 {
				return semijoinMergeParallel(a, b, p, parts)
			}
		}
		return semijoinMerge(a, b, p)
	}
	// Non-prefix: keep each a row whose key has a non-empty run in b,
	// in a's row order, which is already sorted.
	aCols, _ := Columns(a.schema, shared)
	bCols, _ := Columns(b.schema, shared)
	out := &Relation[T]{schema: a.schema}
	for i, r := range matchRuns(orderOn(a, aCols), orderOn(b, bCols)) {
		if r.lo < r.hi {
			out.rows = append(out.rows, a.Tuple(i)...)
			out.vals = append(out.vals, a.vals[i])
		}
	}
	return out
}

// semijoinMerge filters a against b with a galloping two-pointer scan on
// the shared prefix; the output is a's row order, already sorted.
func semijoinMerge[T any](a, b *Relation[T], p int) *Relation[T] {
	rows, vals := semijoinMergeRange(a, b, p, 0, a.Len(), 0, b.Len())
	return fromSorted(a.schema, rows, vals)
}

// semijoinMergeRange filters a[aLo:aHi) against b[bLo:bHi) on the shared
// p-column prefix, returning the surviving rows in a's order — the
// shared core of the sequential semijoin merge and of each chunk of its
// range-split parallel twin.
func semijoinMergeRange[T any](a, b *Relation[T], p, aLo, aHi, bLo, bHi int) ([]int32, []T) {
	aAr, bAr := len(a.schema), len(b.schema)
	rows := make([]int32, 0, (aHi-aLo)*aAr)
	vals := make([]T, 0, aHi-aLo)
	i, j := aLo, bLo
	for i < aHi && j < bHi {
		ra := a.rows[i*aAr:]
		c := compareShared(ra, b.rows[j*bAr:], p)
		if c < 0 {
			i = gallopShared(a.rows, aAr, aHi, i+1, b.rows[j*bAr:], p)
			continue
		}
		if c > 0 {
			j = gallopShared(b.rows, bAr, bHi, j+1, ra, p)
			continue
		}
		rows = append(rows, a.Tuple(i)...)
		vals = append(vals, a.vals[i])
		i++
	}
	return rows, vals
}
