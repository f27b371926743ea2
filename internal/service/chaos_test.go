package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/faq"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// chaosSites is the sweep universe this test binary links: every site
// on the centralized serving path. relation.semijoin (a kernel with no
// caller on this path) sweeps in the relation package's chaos test, the
// netsim sites in the protocol package's, and faqd.solve in the
// daemon's — this list pins that a refactor cannot silently drop a
// site from coverage.
var chaosSites = []string{
	"exec.task",
	"plan.compile",
	"relation.build",
	"relation.eliminate",
	"relation.join",
	"service.solve",
}

// chaosModes are the four injected behaviors, each armed to fire once
// so a solve both experiences the fault and (for non-terminal modes)
// completes.
var chaosModes = []fault.Config{
	{Mode: fault.ModeError, Once: true},
	{Mode: fault.ModePanic, Once: true},
	{Mode: fault.ModeDelay, Once: true},
	{Mode: fault.ModeCancel, Once: true},
}

// typedChaosError reports whether err is one of the typed outcomes the
// resilience contract allows a faulted solve to return.
func typedChaosError(err error) bool {
	return errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, ErrInternal) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// solveBounded runs one Solve with a hang watchdog.
func solveBounded(t *testing.T, sv *Service[int64], q *faq.Query[int64]) (*relation.Relation[int64], error) {
	t.Helper()
	type outcome struct {
		ans *relation.Relation[int64]
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		ans, _, err := sv.Solve(context.Background(), q)
		done <- outcome{ans, err}
	}()
	select {
	case o := <-done:
		return o.ans, o.err
	case <-time.After(60 * time.Second):
		t.Fatal("solve hung under injected fault")
		return nil, nil
	}
}

// TestChaosSweep is the resilience acceptance test: every registered
// failpoint on the serving path, fired in every mode, at 1/2/8
// workers. The contract per case: the solve returns (no hang); on
// success the answer is bit-identical to the fault-free reference; on
// failure the error is typed (injected / internal / cancellation) —
// never an escaped panic or a corrupt answer. The service stays usable
// after every case.
func TestChaosSweep(t *testing.T) {
	defer fault.Reset()
	fault.Reset() // a stray FAQ_FAILPOINTS env must not skew the reference

	registered := make(map[string]bool)
	for _, name := range fault.Names() {
		registered[name] = true
	}
	for _, site := range chaosSites {
		if !registered[site] {
			t.Fatalf("site %q not registered in this binary — sweep universe out of date", site)
		}
	}

	q := countQuery(t, pathEdges, 5, 60, 8, []int{0}, 4242)
	want, err := faq.Solve(q)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{1, 2, 8} {
		pool := exec.New(w)
		prev := exec.SetWorkers(w) // kernel-internal partitioning too
		for _, site := range chaosSites {
			for _, cfg := range chaosModes {
				t.Run(fmt.Sprintf("w%d/%s/%s", w, site, cfg.Mode), func(t *testing.T) {
					sv := New[int64](semiring.Count{}, "count", plan.NewCache(8), WithPool(pool))
					fault.Enable(site, cfg)
					defer fault.Reset()

					ans, err := solveBounded(t, sv, q)
					s, _ := fault.Lookup(site)
					if s.Fired() == 0 {
						t.Fatalf("site %s never fired — this case tested nothing", site)
					}
					if err != nil {
						if !typedChaosError(err) {
							t.Fatalf("untyped error under %s at %s: %v", cfg.Mode, site, err)
						}
					} else if !bitIdentical(ans, want) {
						t.Fatalf("fault at %s (%s) corrupted a successful answer", site, cfg.Mode)
					}

					// Containment: the service (and its pool) serve cleanly
					// after the fault.
					fault.Reset()
					ans2, err2 := solveBounded(t, sv, q)
					if err2 != nil {
						t.Fatalf("service unusable after fault at %s: %v", site, err2)
					}
					if !bitIdentical(ans2, want) {
						t.Fatalf("post-fault answer differs at %s", site)
					}
				})
			}
		}
		exec.SetWorkers(prev)
	}
}

// TestChaosCancellationPropagation is the cancellation satellite: with
// a delay armed at each failpoint site (always-firing, so the solve is
// provably mid-flight), canceling the request context returns
// context.Canceled within a bounded wait, and the pool serves the next
// request cleanly — at 1, 2, and 8 workers.
func TestChaosCancellationPropagation(t *testing.T) {
	defer fault.Reset()
	fault.Reset()

	q := countQuery(t, pathEdges, 5, 60, 8, []int{0}, 7777)
	want, err := faq.Solve(q)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{1, 2, 8} {
		pool := exec.New(w)
		for _, site := range chaosSites {
			t.Run(fmt.Sprintf("w%d/%s", w, site), func(t *testing.T) {
				sv := New[int64](semiring.Count{}, "count", plan.NewCache(8), WithPool(pool))
				// Every evaluation delays, so the request is still in
				// flight when the cancel lands, whatever the site.
				fault.Enable(site, fault.Config{Mode: fault.ModeDelay, Delay: 30 * time.Millisecond})
				defer fault.Reset()

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				type outcome struct {
					err error
					dur time.Duration
				}
				done := make(chan outcome, 1)
				go func() {
					t0 := time.Now()
					_, _, err := sv.Solve(ctx, q)
					done <- outcome{err, time.Since(t0)}
				}()
				time.Sleep(5 * time.Millisecond)
				cancel()
				select {
				case o := <-done:
					if !errors.Is(o.err, context.Canceled) {
						t.Fatalf("mid-solve cancel at %s returned %v, want context.Canceled", site, o.err)
					}
					if o.dur > 30*time.Second {
						t.Fatalf("cancel at %s took %v — not prompt", site, o.dur)
					}
				case <-time.After(60 * time.Second):
					t.Fatalf("cancel at %s: solve never returned", site)
				}

				// The pool is reusable after the canceled request.
				fault.Reset()
				ans, _, err := sv.Solve(context.Background(), q)
				if err != nil || !bitIdentical(ans, want) {
					t.Fatalf("pool unusable after canceled request at %s: %v", site, err)
				}
			})
		}
	}
}

// envelopeOps are the three entry points that share the resilience
// envelope. prep readies one request against sv (Update needs a live
// handle, materialized before any gate slot is held or fault armed) and
// returns it; site is a failpoint the request reaches on a cold plan
// cache, with the request's ctx where the site takes one.
var envelopeOps = []struct {
	name string
	site string
	prep func(t *testing.T, sv *Service[int64]) func(context.Context) error
}{
	{"solve", "service.solve", func(t *testing.T, sv *Service[int64]) func(context.Context) error {
		q := countQuery(t, pathEdges, 5, 40, 8, []int{0}, 31)
		return func(ctx context.Context) error {
			_, _, err := sv.Solve(ctx, q)
			return err
		}
	}},
	{"materialize", "plan.compile", func(t *testing.T, sv *Service[int64]) func(context.Context) error {
		q := countQuery(t, pathEdges, 5, 40, 8, []int{0}, 32)
		return func(ctx context.Context) error {
			mz, _, err := sv.Materialize(ctx, q)
			if err == nil {
				mz.Close()
			}
			return err
		}
	}},
	{"update", "delta.apply", func(t *testing.T, sv *Service[int64]) func(context.Context) error {
		q := countQuery(t, pathEdges, 5, 40, 8, []int{0}, 33)
		mz, _, err := sv.Materialize(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mz.Close)
		b := delta.Batch[int64]{Edge: 0, Inserts: []delta.Tuple[int64]{{Row: []int{1, 1}, Val: 1}}}
		return func(ctx context.Context) error { return mz.Update(ctx, b) }
	}},
}

// TestChaosServiceEnvelope pins the envelope that Solve, Materialize and
// Update share: a full gate sheds with a typed *OverloadError, the
// per-request deadline cuts a stalled request off with
// context.DeadlineExceeded, and a panic below the service surfaces as a
// typed *InternalError — each moving its degradation counter by one.
func TestChaosServiceEnvelope(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	ctx := context.Background()
	for _, op := range envelopeOps {
		t.Run(op.name+"/shed", func(t *testing.T) {
			gate := NewGate(1)
			sv := New[int64](semiring.Count{}, "count", plan.NewCache(8), WithGate(gate))
			run := op.prep(t, sv)
			if !gate.TryAcquire() {
				t.Fatal("gate full before the test held its slot")
			}
			defer gate.Release()
			before := sv.Stats()
			err := run(ctx)
			var oe *OverloadError
			if !errors.As(err, &oe) || oe.Limit != 1 {
				t.Fatalf("full gate: err = %v, want *OverloadError with limit 1", err)
			}
			after := sv.Stats()
			if after.Shed != before.Shed+1 || after.Errors != before.Errors+1 || after.Requests != before.Requests+1 {
				t.Fatalf("shed/errors/requests %d/%d/%d -> %d/%d/%d, want each +1",
					before.Shed, before.Errors, before.Requests, after.Shed, after.Errors, after.Requests)
			}
		})
		t.Run(op.name+"/deadline", func(t *testing.T) {
			defer fault.Reset()
			sv := New[int64](semiring.Count{}, "count", plan.NewCache(8), WithDeadline(20*time.Millisecond))
			run := op.prep(t, sv)
			// The stall outlasts the deadline; a site handed the ctx
			// returns as the deadline passes, plan.compile sleeps it out
			// and the pass's ctx gate then fails.
			fault.Enable(op.site, fault.Config{Mode: fault.ModeDelay, Delay: 200 * time.Millisecond, Once: true})
			before := sv.Stats()
			err := run(ctx)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("stalled at %s: err = %v, want context.DeadlineExceeded", op.site, err)
			}
			if after := sv.Stats(); after.DeadlineExceeded != before.DeadlineExceeded+1 {
				t.Fatalf("deadline_exceeded %d -> %d, want +1", before.DeadlineExceeded, after.DeadlineExceeded)
			}
		})
		t.Run(op.name+"/panic", func(t *testing.T) {
			defer fault.Reset()
			sv := New[int64](semiring.Count{}, "count", plan.NewCache(8))
			run := op.prep(t, sv)
			fault.Enable(op.site, fault.Config{Mode: fault.ModePanic, Once: true})
			before := sv.Stats()
			err := run(ctx)
			var ie *InternalError
			if !errors.As(err, &ie) || ie.Site != op.site {
				t.Fatalf("panic at %s: err = %v, want *InternalError from that site", op.site, err)
			}
			if after := sv.Stats(); after.Panics != before.Panics+1 {
				t.Fatalf("panics %d -> %d, want +1", before.Panics, after.Panics)
			}
		})
	}
}
