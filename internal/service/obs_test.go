package service

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
	"repro/internal/plan"
	"repro/internal/semiring"
)

// TestCachedPlanCarriesMeasuredShapes is the acceptance criterion for
// the measured-shapes feedback loop: the second solve of a shape hits
// the cached plan and both its Info and the plan's snapshot carry
// non-zero measured per-node durations from real executions.
func TestCachedPlanCarriesMeasuredShapes(t *testing.T) {
	cache := plan.NewCache(8)
	sv := New[int64](semiring.Count{}, "count", cache)
	ctx := context.Background()

	q1 := countQuery(t, pathEdges, 5, 60, 8, []int{0}, 9001)
	if _, _, err := sv.Solve(ctx, q1); err != nil {
		t.Fatal(err)
	}
	q2 := countQuery(t, pathEdges, 5, 60, 8, []int{0}, 9002)
	_, info, err := sv.Solve(ctx, q2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CacheHit {
		t.Fatal("second solve of the same shape should hit the plan cache")
	}
	if len(info.NodeNS) == 0 {
		t.Fatal("cached-plan solve reported no per-node durations")
	}
	var total int64
	for _, ns := range info.NodeNS {
		if ns < 0 {
			t.Fatalf("negative node duration %d in %v", ns, info.NodeNS)
		}
		total += ns
	}
	if total <= 0 {
		t.Fatalf("per-node durations sum to %d, want > 0 (%v)", total, info.NodeNS)
	}

	snaps := cache.Plans()
	if len(snaps) != 1 {
		t.Fatalf("cache holds %d plans, want 1", len(snaps))
	}
	if snaps[0].Execs < 2 {
		t.Errorf("plan execs = %d, want >= 2", snaps[0].Execs)
	}
	if snaps[0].WorkNS <= 0 {
		t.Errorf("cached plan WorkNS = %d, want > 0: measured costs did not reach the plan", snaps[0].WorkNS)
	}
	if snaps[0].CritPathNS <= 0 {
		t.Errorf("cached plan CritPathNS = %d, want > 0", snaps[0].CritPathNS)
	}
}

// TestSolveTraceRecorded: a service with a tracer records one trace
// per request with the phase spans and per-node exec spans, and the
// shared registry surfaces the same request in its exposition.
func TestSolveTraceRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(16)
	sv := New[int64](semiring.Count{}, "count", plan.NewCache(8),
		WithMetrics(reg), WithTracer(tracer))
	ctx := context.Background()

	for rep := 0; rep < 2; rep++ {
		q := countQuery(t, pathEdges, 5, 50, 8, []int{0}, int64(7000+rep))
		if _, _, err := sv.Solve(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	traces := tracer.Recent(10)
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	newest, oldest := traces[0], traces[1]
	if oldest.CacheHit || !newest.CacheHit {
		t.Errorf("cache hits: oldest=%v newest=%v, want false/true", oldest.CacheHit, newest.CacheHit)
	}
	if newest.Semiring != "count" || len(newest.Fingerprint) != 16 {
		t.Errorf("trace envelope: semiring %q fingerprint %q", newest.Semiring, newest.Fingerprint)
	}
	if newest.TotalNS <= 0 {
		t.Errorf("trace TotalNS = %d, want > 0", newest.TotalNS)
	}
	want := map[string]bool{"canonicalize": false, "cache": false, "admission": false, "bind": false, "exec": false}
	nodes := 0
	for _, sp := range newest.Spans {
		if sp.Name == "exec.node" {
			if sp.Node < 0 {
				t.Errorf("exec.node span with node %d", sp.Node)
			}
			nodes++
			continue
		}
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("phase span %q missing from %v", name, newest.Spans)
		}
	}
	if nodes == 0 {
		t.Error("no per-node exec spans recorded")
	}

	// The shared registry carries the same requests, and Stats reads
	// through it.
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	sc, err := obstest.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("registry exposition does not parse: %v", err)
	}
	if v, ok := sc.Value("faq_service_requests_total", map[string]string{"semiring": "count"}); !ok || v != 2 {
		t.Errorf("faq_service_requests_total = %v (ok=%v), want 2", v, ok)
	}
	if st := sv.Stats(); st.Requests != 2 || st.Errors != 0 {
		t.Errorf("Stats = %+v, want Requests=2 Errors=0", st)
	}
}
