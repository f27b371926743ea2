package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed step inside a solve trace. Node is the GHD node id
// for per-node exec spans and -1 for request-phase spans
// (canonicalize, cache, admission, bind, exec).
type Span struct {
	Name  string `json:"name"`
	Node  int    `json:"node"`
	DurNS int64  `json:"dur_ns"`
}

// Trace is one recorded solve: the request phases in order plus one
// span per GHD node, as measured by the exec layer's cost vector.
type Trace struct {
	ID          uint64    `json:"id"`
	Time        time.Time `json:"time"`
	Semiring    string    `json:"semiring"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	CacheHit    bool      `json:"cache_hit"`
	Fallback    bool      `json:"fallback,omitempty"`
	Err         string    `json:"err,omitempty"`
	TotalNS     int64     `json:"total_ns"`
	Spans       []Span    `json:"spans"`
}

// Tracer keeps the N most recent traces in a fixed ring buffer.
// Recording is O(1) amortized and never blocks a reader for long; a
// nil *Tracer is valid and drops everything, so instrumented code does
// not need nil checks at call sites.
type Tracer struct {
	seq atomic.Uint64
	mu  sync.Mutex
	buf []Trace
	n   uint64 // total traces ever recorded
}

// NewTracer returns a tracer retaining the last `capacity` traces
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Trace, capacity)}
}

// Record stores tr in the ring, assigning its ID. No-op on a nil
// tracer.
func (t *Tracer) Record(tr Trace) {
	if t == nil {
		return
	}
	tr.ID = t.seq.Add(1)
	t.mu.Lock()
	t.buf[t.n%uint64(len(t.buf))] = tr
	t.n++
	t.mu.Unlock()
}

// Recent returns up to n traces, newest first. A nil tracer returns
// nil.
func (t *Tracer) Recent(n int) []Trace {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	have := t.n
	if have > uint64(len(t.buf)) {
		have = uint64(len(t.buf))
	}
	if uint64(n) < have {
		have = uint64(n)
	}
	out := make([]Trace, 0, have)
	for i := uint64(0); i < have; i++ {
		idx := (t.n - 1 - i) % uint64(len(t.buf))
		out = append(out, t.buf[idx])
	}
	return out
}
