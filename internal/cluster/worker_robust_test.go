package cluster

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/faq"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/rpc"
	"repro/internal/semiring"
	"repro/internal/shard"
)

// TestWorkerComputeNeverTrustsCells drives a worker's compute through
// Handle with frames whose bytes the coordinator never vetted: a shard
// or message cell at or past the session's DomSize, a negative one, and
// a DomSize whose power overflows int, and an unsorted keep list. The node evaluator addresses child
// messages by cell value, so each frame must come back as an error or
// as the Join + AggregateOut chain's answer — never a panic, and never
// an allocation of the span.
func TestWorkerComputeNeverTrustsCells(t *testing.T) {
	s := semiring.Count{}
	_, cod, err := Profile[int64]("count")
	if err != nil {
		t.Fatal(err)
	}
	build := func(schema []int, rows [][]int) *relation.Relation[int64] {
		b := relation.NewBuilder[int64](s, schema)
		for i, r := range rows {
			b.Add(r, int64(i+2))
		}
		return b.Build()
	}
	cases := []struct {
		name          string
		dom           int
		factor, child *relation.Relation[int64]
		keep          []int
	}{
		{"shard-cell-at-dom", 8,
			build([]int{0, 1}, [][]int{{0, 1}, {0, 8}, {3, 2}}),
			build([]int{1}, [][]int{{1}, {2}}), nil},
		{"shard-negative-cell", 8,
			build([]int{0, 1}, [][]int{{0, -3}, {1, 2}, {3, 2}}),
			build([]int{1}, [][]int{{1}, {2}}), nil},
		{"message-cell-at-dom", 8,
			build([]int{0, 1}, [][]int{{0, 1}, {1, 2}}),
			build([]int{1}, [][]int{{1}, {2}, {9}}), nil},
		{"message-negative-cell", 8,
			build([]int{0, 1}, [][]int{{0, 1}, {1, 2}, {3, 2}}),
			build([]int{1}, [][]int{{-5}, {1}, {2}}), nil},
		{"dom-square-overflows", math.MaxUint32,
			build([]int{0, 1, 2}, [][]int{{0, 1, 2}, {1, 1, 2}, {3, 4, 5}}),
			build([]int{1, 2}, [][]int{{1, 2}, {4, 5}}), nil},
		// (2^22)^3 = 2^66 wraps to 0 in an int64.
		{"dom-cube-wraps-to-zero", 1 << 22,
			build([]int{0, 1, 2, 3}, [][]int{{0, 1, 2, 3}, {1, 1, 2, 3}, {3, 4, 5, 6}}),
			build([]int{1, 2, 3}, [][]int{{1, 2, 3}, {4, 5, 6}}), nil},
		// The wire does not promise a sorted keep list.
		{"unsorted-keep", 8,
			build([]int{0, 1, 2}, [][]int{{0, 1, 2}, {1, 1, 2}, {3, 4, 5}}),
			build([]int{1}, [][]int{{1}, {4}}), []int{2, 0}},
	}
	for _, c := range cases {
		keep := c.keep
		if keep == nil {
			keep = []int{0}
		}
		t.Run(c.name, func(t *testing.T) {
			q := &faq.Query[int64]{S: s, DomSize: c.dom}
			want, err := faq.AggregateOut(q, relation.Join(s, c.factor, c.child),
				func(x int) bool { return hypergraph.ContainsSorted(keep, x) })
			if err != nil {
				t.Fatal(err)
			}
			w := NewWorker()
			frame := func(kind uint8, a, b int32, body []byte) *rpc.Frame {
				return w.Handle(context.Background(), &rpc.Frame{Kind: kind, A: a, B: b, Body: append(appendEpoch(nil, 1), body...)})
			}
			for _, f := range []*rpc.Frame{
				frame(kindQuery, 0, 0, encodeQuery("count", c.dom)),
				frame(kindLoad, 0, 0, shard.Encode(c.factor, cod)),
				frame(kindStore, 0, 0, shard.Encode(c.child, cod)),
			} {
				if f.Kind != kindOK {
					t.Fatalf("setup frame refused: %s", f.Body)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp := frame(kindCompute, 0, 1, encodeVars(keep))
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("compute allocated %d bytes for a %d-row node", grew, c.factor.Len())
			}
			if resp.Kind == kindErr {
				return // a typed refusal is allowed
			}
			got, err := shard.Decode(s, cod, resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if !relation.Equal(s, got, want) {
				t.Fatalf("compute answered %v, the chain %v", got, want)
			}
		})
	}
}
