// Package shard partitions relations across cluster workers and
// serializes them for the wire.
//
// Placement is deterministic hash partitioning on a subset of each
// relation's columns (the star's join key): every row goes to
// hash(row[key]) mod W, computed by keys.ChunkCols — the FNV-1a
// chunking the netsim protocols split converge-cast items with — at
// every key width, so a re-run reproduces the same sharding exactly. An
// empty key hashes every row to worker 0 — the correct (if
// unparallelized) fallback when a star has no common join columns.
//
// The wire codec reuses the packed-key big-endian conventions: schema
// variables and tuple values travel as big-endian uint32 words (the
// bit patterns of their int32 values), annotations as per-semiring
// 8-byte words via a Codec. Decoding rebuilds the columnar segment
// through relation.Builder, so a decoded relation is bit-identical to
// the encoded one (sorted layout, merged duplicates).
package shard

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/keys"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// Assign returns the worker index for a tuple given the key column
// positions. An empty key assigns every tuple to worker 0.
func Assign(t []int32, cols []int, workers int) int {
	if len(cols) == 0 {
		return 0
	}
	return keys.ChunkCols(t, cols, workers)
}

// Split hash-partitions r into workers shards on the key variables.
// Every shard keeps the full schema (possibly with zero rows), so a
// receiving worker always learns the relation's shape. Within a shard,
// tuples keep their relative sorted order.
func Split[T any](s semiring.Semiring[T], r *relation.Relation[T], key []int, workers int) ([]*relation.Relation[T], error) {
	if workers < 1 {
		return nil, fmt.Errorf("shard: split across %d workers", workers)
	}
	cols, err := relation.Columns(r.Schema(), key)
	if err != nil {
		return nil, fmt.Errorf("shard: split key: %w", err)
	}
	builders := make([]*relation.Builder[T], workers)
	for w := range builders {
		builders[w] = relation.NewBuilder(s, r.Schema())
	}
	n := r.Len()
	for i := 0; i < n; i++ {
		t := r.Tuple(i)
		builders[Assign(t, cols, workers)].AddRow(t, r.Value(i))
	}
	out := make([]*relation.Relation[T], workers)
	for w, b := range builders {
		out[w] = b.Build()
	}
	return out, nil
}

// Codec converts semiring annotations to and from fixed 8-byte wire
// words. Enc/Dec must be exact inverses on every representable value.
type Codec[T any] struct {
	Enc func(T) uint64
	Dec func(uint64) T
}

// EncodedBytes returns the wire size of a relation with the given arity
// and row count: the schema header plus (4·arity + 8) bytes per row.
func EncodedBytes(arity, rows int) int {
	return 8 + 4*arity + rows*(4*arity+8)
}

// RowWireBytes is the per-tuple wire cost at a given arity — the unit
// the cluster bench compares against the paper's per-message tuple
// bounds.
func RowWireBytes(arity int) int { return 4*arity + 8 }

// Encode serializes r: [u32 arity][schema u32...][u32 rows]
// [per row: arity×u32 columns, u64 value], all big-endian.
func Encode[T any](r *relation.Relation[T], cod Codec[T]) []byte {
	return AppendEncode(make([]byte, 0, EncodedBytes(len(r.Schema()), r.Len())), r, cod)
}

// AppendEncode appends Encode's wire form of r to buf.
func AppendEncode[T any](buf []byte, r *relation.Relation[T], cod Codec[T]) []byte {
	schema := r.Schema()
	a := len(schema)
	n := r.Len()
	buf = slices.Grow(buf, EncodedBytes(a, n))
	buf = binary.BigEndian.AppendUint32(buf, uint32(a))
	for _, v := range schema {
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(v)))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	for i := 0; i < n; i++ {
		for _, x := range r.Tuple(i) {
			buf = binary.BigEndian.AppendUint32(buf, uint32(x))
		}
		buf = binary.BigEndian.AppendUint64(buf, cod.Enc(r.Value(i)))
	}
	return buf
}

// Decode rebuilds a relation from Encode's wire form.
func Decode[T any](s semiring.Semiring[T], cod Codec[T], buf []byte) (*relation.Relation[T], error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("shard: truncated relation header (%d bytes)", len(buf))
	}
	a := int(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	if a < 0 || len(buf) < 4*a+4 {
		return nil, fmt.Errorf("shard: truncated schema (arity %d, %d bytes left)", a, len(buf))
	}
	schema := make([]int, a)
	for i := range schema {
		schema[i] = int(int32(binary.BigEndian.Uint32(buf)))
		buf = buf[4:]
	}
	sorted := slices.Clone(schema)
	slices.Sort(sorted)
	if len(slices.Compact(sorted)) != a {
		return nil, fmt.Errorf("shard: schema %v repeats a variable", schema)
	}
	n := int(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	rowBytes := 4*a + 8
	if n < 0 || len(buf) != n*rowBytes {
		return nil, fmt.Errorf("shard: row section is %d bytes, want %d rows × %d", len(buf), n, rowBytes)
	}
	b := relation.NewBuilderHint(s, schema, n)
	row := make([]int32, a)
	for i := 0; i < n; i++ {
		for k := range row {
			row[k] = int32(binary.BigEndian.Uint32(buf))
			buf = buf[4:]
		}
		b.AddRow(row, cod.Dec(binary.BigEndian.Uint64(buf)))
		buf = buf[8:]
	}
	return b.Build(), nil
}
