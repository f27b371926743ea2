package faqs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// shadowRequest is WireRequest as encoding/json decodes it with no
// Unmarshaler in the way: the oracle for the hand-rolled decoder.
type shadowRequest struct {
	Semiring string     `json:"semiring"`
	Edges    [][]string `json:"edges"`
	Factors  []struct {
		Tuples [][]int   `json:"tuples"`
		Values []float64 `json:"values,omitempty"`
	} `json:"factors"`
	Free       []string          `json:"free,omitempty"`
	Aggregates map[string]string `json:"aggregates,omitempty"`
	Dom        int               `json:"dom"`
}

func (sh *shadowRequest) wire() *WireRequest {
	wr := &WireRequest{Semiring: sh.Semiring, Edges: sh.Edges, Free: sh.Free, Aggregates: sh.Aggregates, Dom: sh.Dom}
	if sh.Factors != nil {
		wr.Factors = make([]WireFactor, len(sh.Factors))
		for i, f := range sh.Factors {
			wr.Factors[i] = WireFactor{Tuples: f.Tuples, Values: f.Values}
		}
	}
	return wr
}

// withoutBuffers drops the decoder's private buffers so DeepEqual
// compares what a client can see.
func withoutBuffers(wr WireRequest) *WireRequest {
	if wr.Factors != nil {
		wr.Factors = append([]WireFactor{}, wr.Factors...)
		for i := range wr.Factors {
			wr.Factors[i].flat = nil
		}
	}
	return &wr
}

var wireDecodeSeeds = []string{
	`{"semiring":"count","edges":[["A","B"],["B","C"]],"factors":[{"tuples":[[0,1],[2,3]],"values":[1,2.5]},{"tuples":[[1,1]]}],"free":["A"],"aggregates":{"B":"max"},"dom":4}`,
	" {\n\t\"Semiring\" : \"bool\" , \"EDGES\":[ [ \"x\" ] ] ,\"factors\" : [ { \"tuples\" : [ [ 1 ] , [ -0 ] ] , \"extra\":{\"a\":[1,\"]\"]} } ],\"dom\":2}\r\n",
	`{"factors":[{"tuples":[[1,2],null,[],[null,3]],"values":[null,1e2,-0.5,1E+2]},null],"dom":null,"free":null}`,
	`{"factors":[{"tuples":[[1.0]]}]}`,
	`{"factors":[{"tuples":[[1e2]]}]}`,
	`{"factors":[{"tuples":[[01]]}]}`,
	`{"factors":[{"tuples":[[9223372036854775807,-9223372036854775808]]}]}`,
	`{"factors":[{"tuples":[[9223372036854775808]]}]}`,
	`{"factors":[{"values":[1e999]}]}`,
	`{"factors":[{"values":[.5]}]}`,
	`{"factors":[{"tuples":[[7]]}],"factors":[{"tuples":[[null]]}]}`,
	`{"factors":[{"tuples":[[7,8]],"tuples":[[null]]}]}`,
	`{"s\u0065miring":"f2","\u017femiring":"x","factors":[{"tuple\u0073":[[1]]}]}`,
	`{"factors":[{"tuples":"no"}]}`,
	`{"factors":{"tuples":[]}}`,
	`{"factors":[{"tuples":[[1,]]}]}`,
	`{"factors":[{"tuples":[[1]]}]} x`,
	`{"dom":1,}`,
	`null`,
	`[]`,
	``,
}

// FuzzWireRequestDecode holds the hand-rolled decoder to encoding/json:
// on any bytes the two produce the same request or both fail — the same
// whitespace, negatives and nulls accepted, the same floats, exponents
// and overflows rejected where an int belongs — the decoder never
// panics, and it allocates no more than a fixed multiple of the input (a
// row of "[]," costs its 24-byte slice header for three bytes of JSON,
// in either decoder).
func FuzzWireRequestDecode(f *testing.F) {
	for _, seed := range wireDecodeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want shadowRequest
		wantErr := json.Unmarshal(data, &want)

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var direct WireRequest
		directErr := direct.UnmarshalJSON(data)
		runtime.ReadMemStats(&ms1)
		if alloc, limit := ms1.TotalAlloc-ms0.TotalAlloc, uint64(48*len(data)+16<<10); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, want ≤ %d", len(data), alloc, limit)
		}
		var got WireRequest
		gotErr := json.Unmarshal(data, &got)

		if (wantErr == nil) != (gotErr == nil) || (wantErr == nil) != (directErr == nil) {
			t.Fatalf("%q:\nencoding/json: %v\nvia json.Unmarshal: %v\ndirect: %v", data, wantErr, gotErr, directErr)
		}
		if wantErr != nil {
			return
		}
		for _, wr := range []*WireRequest{withoutBuffers(got), withoutBuffers(direct)} {
			if !reflect.DeepEqual(wr, want.wire()) {
				t.Fatalf("%q:\n got %#v\nwant %#v", data, wr, want.wire())
			}
		}
	})
}

// TestWireDecodeFeedsBuildWireQuery pins the single path: a decoded
// request builds the same query as the hand-built one it was marshalled
// from, from the decoder's own buffer until the caller edits the rows.
func TestWireDecodeFeedsBuildWireQuery(t *testing.T) {
	src := benchWireRequest(64)
	body, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	var wr WireRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withoutBuffers(wr), src) {
		t.Fatalf("decoded request differs from its source")
	}
	for _, f := range wr.Factors {
		if len(f.flat) != 2*len(f.Tuples) || &f.flat[2] != &f.Tuples[1][0] {
			t.Fatalf("tuples are not views over one row-major buffer")
		}
	}
	eng := NewEngine()
	defer eng.Close()
	want, err := eng.SolveWire(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	// Swapping two row views leaves the buffer out of step with Tuples;
	// the answer must follow Tuples.
	tu := wr.Factors[0].Tuples
	tu[0], tu[1] = tu[1], tu[0]
	wr.Factors[0].Values[0], wr.Factors[0].Values[1] = wr.Factors[0].Values[1], wr.Factors[0].Values[0]
	got, err := eng.SolveWire(context.Background(), &wr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tuples, want.Tuples) || !reflect.DeepEqual(got.Values, want.Values) {
		t.Fatalf("decoded request answers %v %v, hand-built %v %v", got.Tuples, got.Values, want.Tuples, want.Values)
	}
}

// benchWireRequest is a serve_http-sized body: six binary count factors
// of n tuples over a path.
func benchWireRequest(n int) *WireRequest {
	r := rand.New(rand.NewSource(18))
	wr := &WireRequest{Semiring: "count", Free: []string{"A0"}, Dom: n}
	for e := 0; e < 6; e++ {
		wr.Edges = append(wr.Edges, []string{fmt.Sprintf("A%d", e), fmt.Sprintf("A%d", e+1)})
		f := WireFactor{Tuples: make([][]int, n), Values: make([]float64, n)}
		for i := range f.Tuples {
			f.Tuples[i] = []int{r.Intn(n), r.Intn(n)}
			f.Values[i] = float64(1 + r.Intn(3))
		}
		wr.Factors = append(wr.Factors, f)
	}
	return wr
}

// BenchmarkWireDecode and BenchmarkBuildWireQuery price the two request
// steps ahead of the solve on a serve_http-sized body (n=512, six binary
// factors). Developer aids: the claims are bench/'s
// faqd.json_decode_ms_per_op and faqs.build_query_ms_per_op.
func BenchmarkWireDecode(b *testing.B) {
	body, err := json.Marshal(benchWireRequest(512))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var wr WireRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildWireQuery(b *testing.B) {
	body, err := json.Marshal(benchWireRequest(512))
	if err != nil {
		b.Fatal(err)
	}
	var wr WireRequest
	if err := json.Unmarshal(body, &wr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildWireQuery(&wr); err != nil {
			b.Fatal(err)
		}
	}
}
