package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public functions, recorded by
// the benchmark's own code around the call. Start and End are
// nanoseconds since the recorder was created; Parent is the id of the
// span that caused this one (-1 for a root) and Op the operation all
// spans of one request share.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: the cluster transport wrapper records round trips from
// the coordinator's fan-out goroutines.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, op, parent int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Op: op, Parent: parent, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// rename relabels a span once its outcome is known (a cache get that
// turned out to be a miss).
func (r *recorder) rename(id int, name string) {
	r.mu.Lock()
	r.spans[id].Name = name
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps every span as one JSON document.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type spanKey struct{}

type spanRef struct {
	rec    *recorder
	id, op int
}

// withSpan threads the current span through a context so code the
// benchmark wraps further down (the cluster transport) can parent its
// own spans under it.
func withSpan(ctx context.Context, rec *recorder, id, op int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{rec, id, op})
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its direct children. Children may overlap
// each other (concurrent round trips) and are clipped to the parent, so
// the covered part is the length of the union of their intervals.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never ended: contributes nothing
		}
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			if v.lo < reach {
				v.lo = reach
			}
			covered += v.hi - v.lo
			reach = v.hi
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerOf maps a span name to the layer whose time it is: the module
// prefix of the name, with the modules the issue groups together
// (relation+exec behind faq.SolveGHD; cluster+shard+rpc) folded.
func layerOf(name string) string {
	mod, _, _ := strings.Cut(name, ".")
	switch mod {
	case "faq":
		return "kernels"
	case "rpc", "shard":
		return "cluster"
	}
	return mod
}

// traceSummary aggregates a recorded run. Spans named "op" are whole
// operations through the public entry point; "replay" spans parent the
// same operation run stage by stage. The stages of one replay run one
// after another, so their durations add up to the replay's elapsed
// time; below a stage, spans may run concurrently (a fan-out's round
// trips), which is why coverage and shares use stage durations and only
// the per-name figures use self times.
type traceSummary struct {
	wholeNS int64            // Σ duration of "op" spans
	partsNS int64            // Σ duration of the stages (direct children of "replay" spans)
	byLayer map[string]int64 // stage durations per layer
	byName  map[string]int64 // self time per span name
	count   map[string]int64 // spans per name
}

func summarize(spans []span) traceSummary {
	sum := traceSummary{byName: map[string]int64{}, count: map[string]int64{}, byLayer: map[string]int64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		switch {
		case s.Name == "op":
			sum.wholeNS += s.End - s.Start
		case s.Parent >= 0 && spans[s.Parent].Name == "replay":
			sum.partsNS += s.End - s.Start
			sum.byLayer[layerOf(s.Name)] += s.End - s.Start
		}
		sum.byName[s.Name] += self[i]
		sum.count[s.Name]++
	}
	return sum
}
