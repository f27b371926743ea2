package obs

import (
	"fmt"
	"testing"
	"time"
)

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Trace{Semiring: fmt.Sprintf("s%d", i), Time: time.Unix(int64(i), 0)})
	}
	got := tr.Recent(10)
	if len(got) != 4 {
		t.Fatalf("Recent returned %d traces, want 4", len(got))
	}
	for i, want := range []string{"s9", "s8", "s7", "s6"} {
		if got[i].Semiring != want {
			t.Fatalf("Recent[%d] = %s, want %s (newest first)", i, got[i].Semiring, want)
		}
	}
	if got[0].ID != 10 {
		t.Fatalf("IDs should be assigned sequentially, newest = %d", got[0].ID)
	}
	if sub := tr.Recent(2); len(sub) != 2 || sub[0].Semiring != "s9" {
		t.Fatalf("Recent(2) = %v", sub)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Trace{Semiring: "x"}) // must not panic
	if tr.Recent(5) != nil {
		t.Fatal("nil tracer must drop everything")
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Trace{Semiring: "a"})
	tr.Record(Trace{Semiring: "b"})
	got := tr.Recent(100)
	if len(got) != 2 || got[0].Semiring != "b" || got[1].Semiring != "a" {
		t.Fatalf("partial ring Recent = %v", got)
	}
}
