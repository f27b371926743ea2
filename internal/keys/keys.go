// Package keys provides the fixed-width tuple-key codecs shared by the
// relation kernel and the protocol engine.
//
// The hot paths of the paper's evaluation — Join/Semijoin/EliminateVar
// inside every star reduction of Theorem 4.1, and the keyed
// converge-casts of Theorem 3.11 — all need to identify tuples by a
// subset of their columns. Packing up to two int32 attribute values into
// one uint64 keeps those lookups allocation-free and lets sorted-merge
// code compare keys with a single integer comparison; wider keys compare
// column by column past the packed head, so no key is a string.
//
// Packed keys are order-preserving: if tuple u precedes tuple v in the
// lexicographic (signed int32) order the relations maintain, then
// Pack(u) < Pack(v) as uint64. This is what lets the relation kernel
// sort and merge on packed keys directly.
//
// ChunkCols places a tuple in one of n chunks by hashing its key
// columns: the protocol splits converge-cast items across Steiner trees
// with it, and the cluster splits relations across workers.
package keys

import "math/bits"

// MaxPacked is the largest number of int32 columns a uint64 key can hold.
const MaxPacked = 2

// signBias flips the sign bit so that unsigned comparison of packed
// words agrees with signed comparison of the original int32 values.
const signBias = 0x80000000

// Pack1 packs one int32 into an order-preserving uint64 key.
func Pack1(x int32) uint64 { return uint64(uint32(x) ^ signBias) }

// Pack2 packs two int32s; uint64 order equals lexicographic (x, y) order.
func Pack2(x, y int32) uint64 { return Pack1(x)<<32 | Pack1(y) }

// Unpack1 inverts Pack1.
func Unpack1(k uint64) int32 { return int32(uint32(k) ^ signBias) }

// Unpack2 inverts Pack2.
func Unpack2(k uint64) (int32, int32) {
	return Unpack1(k >> 32), Unpack1(k & 0xffffffff)
}

// PackCols packs the selected columns of a tuple (all columns when cols
// is nil). len(cols) (or len(t)) must be ≤ MaxPacked; zero columns pack
// to the zero key.
func PackCols(t []int32, cols []int) uint64 {
	if cols == nil {
		switch len(t) {
		case 0:
			return 0
		case 1:
			return Pack1(t[0])
		case 2:
			return Pack2(t[0], t[1])
		}
		//faqlint:allow nopanic(programmer-error precondition: callers gate on MaxPacked before packing)
		panic("keys: PackCols on more than MaxPacked columns")
	}
	switch len(cols) {
	case 0:
		return 0
	case 1:
		return Pack1(t[cols[0]])
	case 2:
		return Pack2(t[cols[0]], t[cols[1]])
	}
	//faqlint:allow nopanic(programmer-error precondition: callers gate on MaxPacked before packing)
	panic("keys: PackCols on more than MaxPacked columns")
}

// FNV-1a (32-bit) parameters, as in hash/fnv.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// ChunkCols deterministically assigns a tuple to one of n chunks by the
// selected columns (all columns when cols is nil): FNV-1a over their
// big-endian uint32 bytes, modulo n. Every player computes it locally;
// it mirrors the paper's splitting of Dom(A) across the directed paths
// W₁, W₂ in Example 2.3. It does not allocate.
func ChunkCols(t []int32, cols []int, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(fnvOffset32)
	if cols == nil {
		for _, x := range t {
			h = fnvWord(h, x)
		}
	} else {
		for _, c := range cols {
			h = fnvWord(h, t[c])
		}
	}
	return int(h % uint32(n))
}

// fnvWord folds the four big-endian bytes of x into the FNV-1a state h.
func fnvWord(h uint32, x int32) uint32 {
	u := uint32(x)
	h = (h ^ u>>24) * fnvPrime32
	h = (h ^ u>>16&0xff) * fnvPrime32
	h = (h ^ u>>8&0xff) * fnvPrime32
	return (h ^ u&0xff) * fnvPrime32
}

// Bits returns the number of bits needed to represent x (at least 1),
// the channel-cost helper used when sizing protocol items.
func Bits(x int) int {
	if x <= 1 {
		return 1
	}
	return bits.Len(uint(x))
}
