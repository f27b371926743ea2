package relation

import (
	"sort"

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
// see joinOrdered. Either way the output skips the Builder when one
// operand's variables all precede the other's unshared ones
// (restBefore): Join orients the operands so that one leads, and its
// rows are then generated in the output's sorted order with no
// duplicates. Only when neither operand leads does the Builder sort the
// generated rows.

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

// restBefore reports whether every variable of aSchema precedes every
// variable of bSchema outside it, given that the schemas share `shared`
// variables. Then a's columns lead the output schema of a ⋈ b, so
// generating a's rows in order, each crossed with its matches in b's
// row order, yields the output's lexicographic order with no duplicate
// rows: the result needs no re-sort.
func restBefore(aSchema, bSchema []int, shared int) bool {
	return len(aSchema) == 0 || sort.SearchInts(bSchema, aSchema[len(aSchema)-1]+1) == shared
}

// Join returns the natural join a ⋈ b with annotations combined by ⊗
// (Definition 3.4 lifted to the semiring). The output schema is the
// sorted union of the input schemas.
func Join[T any](s semiring.Semiring[T], a, b *Relation[T]) *Relation[T] {
	joinSite.Inject()
	shared := hypergraph.IntersectSorted(a.schema, b.schema)
	p := len(shared)
	if !restBefore(a.schema, b.schema, p) && restBefore(b.schema, a.schema, p) {
		a, b = b, a // ⊗ is commutative; this orientation emits sorted output
	}
	if isPrefixOf(shared, a.schema) && isPrefixOf(shared, b.schema) {
		return joinMerge(s, a, b, p)
	}
	aCols, _ := Columns(a.schema, shared)
	bCols, _ := Columns(b.schema, shared)
	return joinOrdered(s, a, b, orderOn(a, aCols), orderOn(b, bCols))
}

// joinMerge is the sorted-merge join: both operands are sorted by their
// shared p-column prefix, so matching key groups are found by a galloping
// two-pointer scan and crossed directly. Rows are generated in ascending
// shared key, then a-row, then b-row order, which is the output order
// when a leads (restBefore) and the Builder's ⊕-merge order otherwise.
func joinMerge[T any](s semiring.Semiring[T], a, b *Relation[T], p int) *Relation[T] {
	outSchema := hypergraph.UnionSorted(a.schema, b.schema)
	srcs := outputSrcs(outSchema, a.schema, b.schema)
	outW, na, nb := len(outSchema), a.Len(), b.Len()
	aAr, bAr := len(a.schema), len(b.schema)
	// Find the matching key groups and their pair count first, then fill
	// one buffer of exactly that size.
	type group struct{ i, iEnd, j, jEnd int }
	var groups []group
	pairs := 0
	i, j := 0, 0
	for i < na && j < nb {
		ra := a.rows[i*aAr:]
		rb := b.rows[j*bAr:]
		c := compareShared(ra, rb, p)
		if c < 0 {
			i = gallopShared(a.rows, aAr, na, i+1, rb, p)
			continue
		}
		if c > 0 {
			j = gallopShared(b.rows, bAr, nb, j+1, ra, p)
			continue
		}
		iEnd := i + 1
		for iEnd < na && compareShared(a.rows[iEnd*aAr:], ra, p) == 0 {
			iEnd++
		}
		jEnd := j + 1
		for jEnd < nb && compareShared(b.rows[jEnd*bAr:], rb, p) == 0 {
			jEnd++
		}
		groups = append(groups, group{i, iEnd, j, jEnd})
		pairs += (iEnd - i) * (jEnd - j)
		i, j = iEnd, jEnd
	}
	rows := make([]int32, pairs*outW)
	vals := make([]T, pairs)
	n := 0
	for _, g := range groups {
		for x := g.i; x < g.iEnd; x++ {
			ta := a.Tuple(x)
			for y := g.j; y < g.jEnd; y++ {
				v := s.Mul(a.vals[x], b.vals[y])
				if s.IsZero(v) {
					continue
				}
				tb := b.Tuple(y)
				row := rows[n*outW : (n+1)*outW]
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
	}
	return joinOutput(s, outSchema, restBefore(a.schema, b.schema, p), rows[:n*outW], vals[:n])
}

// joinOutput wraps a join's generated rows into a relation. The ordered
// orientation (restBefore) is already the output's lexicographic order
// and skips the Builder, but still passes the Builder's failpoint, so
// every materialization stays a fault and cancellation point. The
// unordered one re-sorts through the Builder, whose ⊕-merge sees the
// rows in exactly the generation order.
func joinOutput[T any](s semiring.Semiring[T], outSchema []int, ordered bool, rows []int32, vals []T) *Relation[T] {
	if ordered {
		buildSite.Inject()
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
// appears in b, annotations unchanged. No solve calls it: the GHD pass
// and the protocols combine values, by Join followed by elimination.
func Semijoin[T any](s semiring.Semiring[T], a, b *Relation[T]) *Relation[T] {
	semijoinSite.Inject()
	shared := hypergraph.IntersectSorted(a.schema, b.schema)
	if isPrefixOf(shared, a.schema) && isPrefixOf(shared, b.schema) {
		return semijoinMerge(a, b, len(shared))
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
// the shared p-column prefix; the output is a's row order, already
// sorted.
func semijoinMerge[T any](a, b *Relation[T], p int) *Relation[T] {
	aAr, bAr, na, nb := len(a.schema), len(b.schema), a.Len(), b.Len()
	rows := make([]int32, 0, na*aAr)
	vals := make([]T, 0, na)
	i, j := 0, 0
	for i < na && j < nb {
		ra := a.rows[i*aAr:]
		c := compareShared(ra, b.rows[j*bAr:], p)
		if c < 0 {
			i = gallopShared(a.rows, aAr, na, i+1, b.rows[j*bAr:], p)
			continue
		}
		if c > 0 {
			j = gallopShared(b.rows, bAr, nb, j+1, ra, p)
			continue
		}
		rows = append(rows, a.Tuple(i)...)
		vals = append(vals, a.vals[i])
		i++
	}
	return fromSorted(a.schema, rows, vals)
}
