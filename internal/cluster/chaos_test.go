package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/faq"
	"repro/internal/fault"
	"repro/internal/relation"
	"repro/internal/semiring"
)

// TestChaosClusterSolve sweeps the rpc transport failpoints under full
// distributed solves on real loopback fleets of 1, 2, and 8 workers: an
// injected drop on dial/send/recv surfaces as a typed coordinator error
// matching fault.ErrInjected (never a hang, never a wrong answer), an
// injected delay is absorbed with the answer unchanged, and a stall
// under a request deadline surfaces promptly as the context's error.
// After every fault the same fleet must serve a clean solve with the
// bit-identical answer — failed exchanges poison only their connection,
// not the fleet.
func TestChaosClusterSolve(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	sc := semiring.Count{}
	q, g := templateQuery(t, sc, "tree6", 99,
		func(r *rand.Rand) int64 { return int64(1 + r.Intn(3)) })
	want, _, err := faq.SolveGHD(nil, q, g, faq.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{1, 2, 8} {
		c := tcpFleet(t, w)
		solver, err := NewSolver[int64](c, "count")
		if err != nil {
			t.Fatal(err)
		}
		solve := func(ctx context.Context) (*relation.Relation[int64], error) {
			return solver.SolveGHD(ctx, q, g)
		}
		checkClean := func(t *testing.T, label string) {
			t.Helper()
			ans, err := solve(context.Background())
			if err != nil {
				t.Fatalf("%s: clean solve failed: %v", label, err)
			}
			if !relation.Equal(sc, ans, want) {
				t.Fatalf("%s: clean solve returned a different answer", label)
			}
		}
		// Prime the fleet (and the connection pool) before injecting.
		checkClean(t, fmt.Sprintf("w%d/prime", w))

		for _, site := range []string{"rpc.send", "rpc.recv"} {
			t.Run(fmt.Sprintf("w%d/drop/%s", w, site), func(t *testing.T) {
				fault.Enable(site, fault.Config{Mode: fault.ModeError, Once: true})
				defer fault.Reset()
				_, err := solve(context.Background())
				if !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("injected %s drop returned %v, want ErrInjected", site, err)
				}
				// Transport failures additionally carry the retryable
				// sentinel serving layers map to 503.
				if !errors.Is(err, ErrUnavailable) {
					t.Fatalf("injected %s drop returned %v, want ErrUnavailable in the chain", site, err)
				}
				fault.Reset()
				checkClean(t, "after drop")
			})

			t.Run(fmt.Sprintf("w%d/delay/%s", w, site), func(t *testing.T) {
				fault.Enable(site, fault.Config{Mode: fault.ModeDelay, Delay: time.Millisecond, OneIn: 3})
				defer fault.Reset()
				ans, err := solve(context.Background())
				if err != nil {
					t.Fatalf("delayed solve failed: %v", err)
				}
				if !relation.Equal(sc, ans, want) {
					t.Fatal("delays changed the answer")
				}
			})
		}

		t.Run(fmt.Sprintf("w%d/drop/rpc.dial", w), func(t *testing.T) {
			// A fresh fleet so the solve must dial: the injected dial
			// fault is not a connection-refused and must fail immediately
			// (no retry loop) as a typed error.
			fresh := tcpFleet(t, w)
			freshSolver, err := NewSolver[int64](fresh, "count")
			if err != nil {
				t.Fatal(err)
			}
			fault.Enable("rpc.dial", fault.Config{Mode: fault.ModeError, Once: true})
			defer fault.Reset()
			t0 := time.Now()
			if _, err := freshSolver.SolveGHD(context.Background(), q, g); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("injected dial fault returned %v, want ErrInjected", err)
			}
			if d := time.Since(t0); d > 5*time.Second {
				t.Fatalf("injected dial fault entered the refused-retry backoff: %v", d)
			}
			fault.Reset()
			ans, err := freshSolver.SolveGHD(context.Background(), q, g)
			if err != nil {
				t.Fatalf("post-fault solve failed: %v", err)
			}
			if !relation.Equal(sc, ans, want) {
				t.Fatal("post-fault answer differs")
			}
		})

		t.Run(fmt.Sprintf("w%d/deadline", w), func(t *testing.T) {
			// A long injected stall must not outlive the request deadline:
			// fanout's first error cancels the rest and the solve reports
			// the context's error promptly.
			fault.Enable("rpc.send", fault.Config{Mode: fault.ModeDelay, Delay: time.Minute, Once: true})
			defer fault.Reset()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			t0 := time.Now()
			_, err := solve(ctx)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("stalled solve returned %v, want DeadlineExceeded", err)
			}
			if d := time.Since(t0); d > 5*time.Second {
				t.Fatalf("deadline was not honored promptly: %v", d)
			}
			fault.Reset()
			checkClean(t, "after deadline")
		})

		t.Run(fmt.Sprintf("w%d/cancel", w), func(t *testing.T) {
			fault.Enable("rpc.recv", fault.Config{Mode: fault.ModeCancel, Once: true})
			defer fault.Reset()
			if _, err := solve(context.Background()); !errors.Is(err, context.Canceled) {
				t.Fatalf("injected cancel returned %v, want context.Canceled", err)
			}
			fault.Reset()
			checkClean(t, "after cancel")
		})

		checkClean(t, fmt.Sprintf("w%d/post-sweep", w))
	}
}
