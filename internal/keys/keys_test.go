package keys

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

func TestPackRoundTrip(t *testing.T) {
	vals := []int32{-1 << 31, -7, -1, 0, 1, 42, 1<<31 - 1}
	for _, x := range vals {
		if got := Unpack1(Pack1(x)); got != x {
			t.Errorf("Unpack1(Pack1(%d)) = %d", x, got)
		}
		for _, y := range vals {
			gx, gy := Unpack2(Pack2(x, y))
			if gx != x || gy != y {
				t.Errorf("Unpack2(Pack2(%d, %d)) = %d, %d", x, y, gx, gy)
			}
		}
	}
}

func TestPackOrderPreserving(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b := int32(r.Int63()), int32(r.Int63())
		c, d := int32(r.Int63()), int32(r.Int63())
		lex := a < c || (a == c && b < d)
		packed := Pack2(a, b) < Pack2(c, d)
		if lex != packed {
			t.Fatalf("order mismatch: (%d,%d) vs (%d,%d): lex=%v packed=%v", a, b, c, d, lex, packed)
		}
	}
}

func TestPackCols(t *testing.T) {
	row := []int32{10, 20, 30}
	if PackCols(row, []int{1}) != Pack1(20) {
		t.Error("PackCols 1-col mismatch")
	}
	if PackCols(row, []int{0, 2}) != Pack2(10, 30) {
		t.Error("PackCols 2-col mismatch")
	}
	if PackCols(row[:2], nil) != Pack2(10, 20) {
		t.Error("PackCols nil-cols mismatch")
	}
	if PackCols(nil, []int{}) != 0 {
		t.Error("PackCols empty should be 0")
	}
}

// fnvChunk is the reference placement: hash/fnv's FNV-1a over the
// big-endian uint32 bytes of the values, modulo n.
func fnvChunk(vals []int32, n int) int {
	h := fnv.New32a()
	var buf [4]byte
	for _, x := range vals {
		binary.BigEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	return int(h.Sum32() % uint32(n))
}

// TestChunkAgreement: ChunkCols must place a tuple exactly where
// hash/fnv's FNV-1a over the big-endian bytes of its key columns does,
// at every arity 0–5, for whole tuples and for column selections (in
// selection order), negative values included.
func TestChunkAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for arity := 0; arity <= 5; arity++ {
		for n := 1; n <= 9; n++ {
			for i := 0; i < 100; i++ {
				tu := make([]int32, arity)
				for k := range tu {
					tu[k] = int32(r.Intn(2000) - 1000)
				}
				if got, want := ChunkCols(tu, nil, n), fnvChunk(tu, n); got != want {
					t.Fatalf("ChunkCols(%v, nil, %d) = %d, FNV-1a says %d", tu, n, got, want)
				}
				cols := r.Perm(arity)[:r.Intn(arity+1)]
				sel := make([]int32, len(cols))
				for k, c := range cols {
					sel[k] = tu[c]
				}
				if got, want := ChunkCols(tu, cols, n), fnvChunk(sel, n); got != want {
					t.Fatalf("ChunkCols(%v, %v, %d) = %d, FNV-1a says %d", tu, cols, n, got, want)
				}
			}
		}
	}
}

func TestChunkColsAllocationFree(t *testing.T) {
	tu, cols := []int32{3, -1, 7, 9}, []int{2, 0, 3}
	if a := testing.AllocsPerRun(100, func() { ChunkCols(tu, cols, 5) }); a != 0 {
		t.Fatalf("ChunkCols allocates %v times per call", a)
	}
}

func TestBits(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9}
	for x, want := range cases {
		if got := Bits(x); got != want {
			t.Errorf("Bits(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestChunkZeroColumns(t *testing.T) {
	for n := 1; n <= 5; n++ {
		want := fnvChunk(nil, n)
		if ChunkCols(nil, nil, n) != want || ChunkCols([]int32{4, 2}, []int{}, n) != want {
			t.Fatalf("0-col chunk disagrees with the FNV-1a hash of no bytes at n=%d", n)
		}
	}
}
