package exec

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

// queueDepth scrapes the faq_exec_queue_depth gauge.
func queueDepth(t *testing.T) float64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := obs.Default().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := obstest.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s.Value("faq_exec_queue_depth", nil)
	if !ok {
		t.Fatal("faq_exec_queue_depth missing from the exposition")
	}
	return v
}

// TestTaskInstrumentationAllocs pins the observability cost of the
// exec hot path: metering a Forest node task must add zero allocations
// per task. Forest's fixed setup allocates a handful of slices
// regardless of size, so per-task cost is the growth between a tiny
// and a large forest.
func TestTaskInstrumentationAllocs(t *testing.T) {
	run := func(v int) error { return nil }
	forest := func(n int) func() {
		parent := make([]int, n)
		for i := range parent {
			parent[i] = -1
		}
		p := New(1)
		return func() {
			if err := p.Forest(parent, run); err != nil {
				t.Fatal(err)
			}
		}
	}
	small := testing.AllocsPerRun(50, forest(4))
	large := testing.AllocsPerRun(50, forest(4096))
	if large > small+2 {
		t.Fatalf("per-task allocations detected: %d tasks cost %.1f allocs, 4 tasks cost %.1f",
			4096, large, small)
	}
}

// TestQueueDepthBalanced asserts the ready-queue gauge returns to its
// starting value after parallel Forest runs — including the failure
// path that cancels queued tasks.
func TestQueueDepthBalanced(t *testing.T) {
	before := queueDepth(t)
	parent := make([]int, 64)
	for i := range parent {
		parent[i] = -1
	}
	p := New(4)
	if err := p.Forest(parent, func(v int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := p.Forest(parent, func(v int) error {
		if v == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if after := queueDepth(t); after != before {
		t.Fatalf("queue depth gauge leaked: before %v, after %v", before, after)
	}
}

// TestTaskMetricsCount asserts the task counter and duration histogram
// advance once per node task.
func TestTaskMetricsCount(t *testing.T) {
	before := metricTasks.Value()
	parent := []int{-1, 0, 0, -1}
	if err := New(2).Forest(parent, func(v int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := metricTasks.Value() - before; got != int64(len(parent)) {
		t.Fatalf("task counter advanced by %d, want %d", got, len(parent))
	}
}
