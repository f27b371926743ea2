package shard

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/semiring"
)

func randomRel(t testing.TB, seed int64, schema []int, rows, dom int) *relation.Relation[int64] {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := relation.NewBuilder[int64](semiring.Count{}, schema)
	row := make([]int32, len(schema))
	for i := 0; i < rows; i++ {
		for k := range row {
			row[k] = int32(r.Intn(dom))
		}
		b.AddRow(row, int64(1+r.Intn(5)))
	}
	return b.Build()
}

// TestPositions pins how Split resolves its key variables to columns:
// each row lands on the worker Assign picks from the key's schema
// positions, and a key variable missing from the schema is rejected.
func TestPositions(t *testing.T) {
	const workers = 5
	rel := randomRel(t, 3, []int{1, 4, 7, 9}, 120, 11)
	shards, err := Split[int64](semiring.Count{}, rel, []int{4, 9}, workers)
	if err != nil {
		t.Fatal(err)
	}
	for w, s := range shards {
		for i := 0; i < s.Len(); i++ {
			if got := Assign(s.Tuple(i), []int{1, 3}, workers); got != w {
				t.Fatalf("row %v on worker %d, Assign over positions [1 3] says %d", s.Tuple(i), w, got)
			}
		}
	}
	if _, err := Split[int64](semiring.Count{}, rel, []int{5}, workers); err == nil {
		t.Fatal("missing key variable was accepted")
	}
}

func TestSplitPartitionsAndPreserves(t *testing.T) {
	sc := semiring.Count{}
	rel := randomRel(t, 7, []int{0, 2, 5}, 200, 9)
	for _, w := range []int{1, 2, 8} {
		for _, key := range [][]int{{2}, {0, 5}, {0, 2, 5}, {}} {
			shards, err := Split(sc, rel, key, w)
			if err != nil {
				t.Fatal(err)
			}
			if len(shards) != w {
				t.Fatalf("w=%d: %d shards", w, len(shards))
			}
			total := 0
			merged := relation.NewBuilder[int64](sc, rel.Schema())
			cols, _ := relation.Columns(rel.Schema(), key)
			for wi, s := range shards {
				total += s.Len()
				for i := 0; i < s.Len(); i++ {
					if got := Assign(s.Tuple(i), cols, w); got != wi {
						t.Fatalf("w=%d key=%v: row landed on %d, assigned %d", w, key, wi, got)
					}
					merged.AddRow(s.Tuple(i), s.Value(i))
				}
			}
			if total != rel.Len() {
				t.Fatalf("w=%d key=%v: %d rows across shards, want %d", w, key, total, rel.Len())
			}
			// Disjoint shards re-merge to the original relation exactly.
			if !relation.Equal(sc, merged.Build(), rel) {
				t.Fatalf("w=%d key=%v: shards do not re-merge to the input", w, key)
			}
			// Empty key or one worker: everything on worker 0.
			if len(key) == 0 || w == 1 {
				if shards[0].Len() != rel.Len() {
					t.Fatalf("w=%d key=%v: fallback shard has %d rows", w, key, shards[0].Len())
				}
			}
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	sc := semiring.Count{}
	rel := randomRel(t, 11, []int{1, 3}, 120, 7)
	a, err := Split(sc, rel, []int{3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Split(sc, rel, []int{3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for w := range a {
		if !relation.Equal(sc, a[w], b[w]) {
			t.Fatalf("shard %d differs between identical runs", w)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sc := semiring.Count{}
	cod := Codec[int64]{
		Enc: func(v int64) uint64 { return uint64(v) },
		Dec: func(u uint64) int64 { return int64(u) },
	}
	rels := []*relation.Relation[int64]{
		randomRel(t, 3, []int{0, 1}, 50, 6),
		randomRel(t, 4, []int{2}, 10, 4),
		relation.NewBuilder[int64](sc, []int{0, 1}).Build(), // empty
		relation.Unit(sc, sc.One()),                         // zero arity
	}
	// Negative annotation values must survive the unsigned wire word.
	nb := relation.NewBuilder[int64](sc, []int{0})
	nb.AddRow([]int32{3}, -42)
	rels = append(rels, nb.Build())
	for i, r := range rels {
		buf := Encode(r, cod)
		if len(buf) != EncodedBytes(r.Arity(), r.Len()) {
			t.Fatalf("rel %d: encoded %d bytes, EncodedBytes says %d", i, len(buf), EncodedBytes(r.Arity(), r.Len()))
		}
		got, err := Decode(sc, cod, buf)
		if err != nil {
			t.Fatalf("rel %d: decode: %v", i, err)
		}
		if !relation.Equal(sc, got, r) {
			t.Fatalf("rel %d: round trip changed the relation", i)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	sc := semiring.Count{}
	cod := Codec[int64]{Enc: func(v int64) uint64 { return uint64(v) }, Dec: func(u uint64) int64 { return int64(u) }}
	buf := Encode(randomRel(t, 5, []int{0, 1}, 8, 5), cod)
	for _, cut := range []int{1, 5, len(buf) - 3} {
		if _, err := Decode(sc, cod, buf[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes was accepted", cut)
		}
	}
}

// countCodec is the counting semiring's wire word.
var countCodec = Codec[int64]{Enc: func(v int64) uint64 { return uint64(v) }, Dec: func(u uint64) int64 { return int64(u) }}

// repeatedVarFrame is a 16-byte frame whose schema names variable 3
// twice (arity 2, schema [3 3], 0 rows). Building it would panic inside
// relation.NewBuilderHint and take the receiving worker down.
var repeatedVarFrame = []byte{0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 3, 0, 0, 0, 0}

func TestDecodeRejectsRepeatedVariable(t *testing.T) {
	sc := semiring.Count{}
	if _, err := Decode(sc, countCodec, repeatedVarFrame); err == nil {
		t.Fatal("a schema repeating a variable was accepted")
	}
	// The same check holds with rows present and the repeat not adjacent.
	buf := Encode(randomRel(t, 6, []int{1, 4, 7}, 5, 3), countCodec)
	binary.BigEndian.PutUint32(buf[12:], 1) // schema [1 4 1]
	if _, err := Decode(sc, countCodec, buf); err == nil {
		t.Fatal("schema [1 4 1] was accepted")
	}
}

// FuzzShardDecode: on any input Decode either fails with an error or
// returns a relation that survives Encode → Decode unchanged, and it
// allocates at most a fixed multiple of the input size.
func FuzzShardDecode(f *testing.F) {
	sc := semiring.Count{}
	f.Add(repeatedVarFrame)
	for arity := 0; arity <= 4; arity++ {
		schema := make([]int, arity)
		for i := range schema {
			schema[i] = 2*i + 1
		}
		for _, rows := range []int{0, 1, 9} {
			f.Add(Encode(randomRel(f, int64(10*arity+rows), schema, rows, 4), countCodec))
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		// Other goroutines of the fuzzing process allocate too; the
		// least of three measurements is Decode's own.
		var r *relation.Relation[int64]
		var err error
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r, err = Decode(sc, countCodec, buf)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > uint64(16*len(buf)+1024) {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(buf), least)
		}
		if err != nil {
			return
		}
		again, err := Decode(sc, countCodec, Encode(r, countCodec))
		if err != nil {
			t.Fatalf("re-decoding an encoded relation: %v", err)
		}
		if !relation.Equal(sc, again, r) {
			t.Fatalf("round trip changed the relation: %v vs %v", again, r)
		}
	})
}

func TestFloatCodecExactBits(t *testing.T) {
	sp := semiring.SumProduct{}
	cod := Codec[float64]{Enc: math.Float64bits, Dec: math.Float64frombits}
	b := relation.NewBuilder[float64](sp, []int{0})
	b.AddRow([]int32{0}, 0.1)
	b.AddRow([]int32{1}, -1e-300)
	b.AddRow([]int32{2}, math.Inf(1))
	r := b.Build()
	got, err := Decode(sp, cod, Encode(r, cod))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.Len(); i++ {
		if math.Float64bits(got.Value(i)) != math.Float64bits(r.Value(i)) {
			t.Fatalf("row %d: float bits changed across the wire", i)
		}
	}
}

// TestAssignPinned pins the placement of a fixed tuple sequence for key
// widths 1–4 at 2, 3 and 8 workers: a change to the key hash would
// silently reshuffle every cluster's shards.
func TestAssignPinned(t *testing.T) {
	want := map[[2]int]string{ // {key width, workers} → placements
		{1, 2}: "000111110010000111110100",
		{1, 3}: "202100122220220102221102",
		{1, 8}: "402777332076004755532740",
		{2, 2}: "110000110111110111000100",
		{2, 3}: "012110221220221020111122",
		{2, 8}: "132424556575552151662522",
		{3, 2}: "011110011100001010101001",
		{3, 3}: "120220121010201102211112",
		{3, 8}: "051170477724407234165007",
		{4, 2}: "011111011110100000110100",
		{4, 3}: "202222212021001110211201",
		{4, 8}: "457775053316542602352760",
	}
	r := rand.New(rand.NewSource(13))
	tuples := make([][]int32, 24)
	for i := range tuples {
		tuples[i] = []int32{int32(r.Intn(50)), int32(r.Intn(50)), int32(r.Intn(50)), int32(r.Intn(50)), int32(r.Intn(50))}
	}
	for width := 1; width <= 4; width++ {
		// Key columns skip column 0 and run backwards, so the hashed
		// bytes follow key order rather than schema order.
		cols := make([]int, width)
		for k := range cols {
			cols[k] = width - k
		}
		for _, w := range []int{2, 3, 8} {
			var got []byte
			for _, tu := range tuples {
				got = append(got, byte('0'+Assign(tu, cols, w)))
			}
			if s := string(got); s != want[[2]int{width, w}] {
				t.Errorf("width %d, %d workers: placements %q", width, w, s)
			}
		}
	}
}
