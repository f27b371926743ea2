package plan

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/obs"
	"repro/internal/obs/obstest"
)

func pathFingerprint(t *testing.T, k int) *Fingerprint {
	t.Helper()
	h := hypergraph.New(k + 1)
	for i := 0; i < k; i++ {
		h.AddEdge(i, i+1)
	}
	fp, err := Canonicalize(h, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestCacheSingleflight hammers one key from many goroutines (run under
// -race by CI): exactly one compile must run, everyone shares its plan.
func TestCacheSingleflight(t *testing.T) {
	fp := pathFingerprint(t, 3)
	c := NewCache(8)
	var compiles atomic.Int64
	const goroutines = 32
	plans := make([]*Plan, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			p, _, err := c.Get(fp.Key, func() (*Plan, error) {
				compiles.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the race window
				return Compile(fp)
			})
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	if got := compiles.Load(); got != 1 {
		t.Fatalf("%d compiles for one key, want 1 (singleflight)", got)
	}
	for i := 1; i < goroutines; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d got a different plan instance", i)
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != goroutines-1 || s.Compiles != 1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits / 1 compile", s, goroutines-1)
	}
}

// TestCacheSingleflightManyKeys interleaves distinct keys concurrently:
// one compile per key, no cross-talk. Run under -race by CI.
func TestCacheSingleflightManyKeys(t *testing.T) {
	const keys = 6
	fps := make([]*Fingerprint, keys)
	for k := range fps {
		fps[k] = pathFingerprint(t, k+2)
	}
	c := NewCache(keys)
	compiles := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	for rep := 0; rep < 8; rep++ {
		for k := 0; k < keys; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				p, _, err := c.Get(fps[k].Key, func() (*Plan, error) {
					compiles[k].Add(1)
					return Compile(fps[k])
				})
				if err != nil || p.Key != fps[k].Key {
					t.Errorf("key %d: plan %v err %v", k, p, err)
				}
			}(k)
		}
	}
	wg.Wait()
	for k := range compiles {
		if got := compiles[k].Load(); got != 1 {
			t.Fatalf("key %d compiled %d times, want 1", k, got)
		}
	}
}

// TestCacheLRUEviction fills the cache past capacity and pins the bound,
// the eviction count, and that the evicted (oldest) key recompiles while
// recently used keys stay resident.
func TestCacheLRUEviction(t *testing.T) {
	const capacity = 4
	const extra = 3
	c := NewCache(capacity)
	compiles := map[string]int{}
	get := func(fp *Fingerprint) {
		if _, _, err := c.Get(fp.Key, func() (*Plan, error) {
			compiles[fp.Key]++
			return Compile(fp)
		}); err != nil {
			t.Fatal(err)
		}
	}
	fps := make([]*Fingerprint, capacity+extra)
	for i := range fps {
		fps[i] = pathFingerprint(t, i+2)
		get(fps[i])
		if got := c.lru.Len(); got > capacity {
			t.Fatalf("after %d inserts: Len %d > capacity %d", i+1, got, capacity)
		}
	}
	s := c.Stats()
	if s.Len != capacity || s.Evictions != extra {
		t.Fatalf("stats = %+v, want len %d evictions %d", s, capacity, extra)
	}
	// The oldest keys fell out and recompile; the newest are resident.
	get(fps[0])
	if compiles[fps[0].Key] != 2 {
		t.Fatalf("evicted key compiled %d times, want 2", compiles[fps[0].Key])
	}
	get(fps[len(fps)-1])
	if k := fps[len(fps)-1].Key; compiles[k] != 1 {
		t.Fatalf("resident key compiled %d times, want 1", compiles[k])
	}
}

// TestCacheFailureNotCached pins negative-result handling: a failed
// compile propagates to every waiter but leaves no entry, so the next
// request retries.
func TestCacheFailureNotCached(t *testing.T) {
	c := NewCache(4)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, _, err := c.Get("k", func() (*Plan, error) { calls++; return nil, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("want boom, got %v", err)
		}
	}
	if calls != 2 {
		t.Fatalf("failed compile cached (calls=%d, want 2)", calls)
	}
	if got := c.lru.Len(); got != 0 {
		t.Fatalf("failed entry resident: Len=%d", got)
	}
	if s := c.Stats(); s.Failures != 2 {
		t.Fatalf("failures = %d, want 2", s.Failures)
	}
}

// TestCachePanickingCompileDoesNotPoison: a compile that panics must
// release waiters and leave no wedged entry — the next Get retries.
func TestCachePanickingCompileDoesNotPoison(t *testing.T) {
	c := NewCache(4)
	fp := pathFingerprint(t, 3)

	waiterDone := make(chan error, 1)
	inFlight := make(chan struct{})
	go func() {
		defer func() { recover() }()
		_, _, _ = c.Get(fp.Key, func() (*Plan, error) {
			close(inFlight)
			time.Sleep(5 * time.Millisecond) // let the waiter join the flight
			panic("compile exploded")
		})
	}()
	<-inFlight
	go func() {
		_, _, err := c.Get(fp.Key, func() (*Plan, error) { return Compile(fp) })
		waiterDone <- err
	}()
	select {
	case <-waiterDone:
		// Joined the doomed flight (error) or raced past the cleanup and
		// compiled fresh (nil) — both fine; only wedging is a failure.
	case <-time.After(2 * time.Second):
		t.Fatal("waiter wedged: panicked compile poisoned the key")
	}
	// The key is free again: a fresh Get compiles successfully.
	p, _, err := c.Get(fp.Key, func() (*Plan, error) { return Compile(fp) })
	if err != nil || p == nil {
		t.Fatalf("retry after panic: %v", err)
	}
}

// compileSamples scrapes the sample count of faq_plan_compile_ns.
func compileSamples(t *testing.T) float64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := obs.Default().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := obstest.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := s.Value("faq_plan_compile_ns_count", nil)
	if !ok {
		t.Fatal("faq_plan_compile_ns_count missing from the exposition")
	}
	return n
}

// TestCacheObservesCompileDuration: every completed compile, and nothing
// else, lands one sample in faq_plan_compile_ns.
func TestCacheObservesCompileDuration(t *testing.T) {
	before := compileSamples(t)
	c := NewCache(4)
	fp := pathFingerprint(t, 3)
	for i := 0; i < 2; i++ { // a compiling miss, then a hit
		if _, _, err := c.Get(fp.Key, func() (*Plan, error) { return Compile(fp) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Get("k", func() (*Plan, error) { return nil, errors.New("boom") }); err == nil {
		t.Fatal("failed compile returned no error")
	}
	if got := compileSamples(t) - before; got != 1 {
		t.Fatalf("faq_plan_compile_ns observed %v samples, want 1", got)
	}
}

// TestCompileFallback pins the free-variable-restriction path: a shape
// whose free set fits no bag compiles into a Fallback plan (cached, no
// GHD) instead of erroring.
func TestCompileFallback(t *testing.T) {
	h := hypergraph.New(3)
	h.AddEdge(0, 1)
	h.AddEdge(1, 2)
	fp, err := Canonicalize(h, []int{0, 2}, nil) // {0,2} fits no bag
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Fallback || p.G != nil {
		t.Fatalf("want Fallback plan without GHD, got %+v", p)
	}
	if _, err := p.Bind(fp, h); err == nil {
		t.Fatal("Bind on a Fallback plan must error")
	}
}

func TestPlanSnapshot(t *testing.T) {
	fp := pathFingerprint(t, 4)
	p, err := Compile(fp)
	if err != nil {
		t.Fatal(err)
	}
	p.RecordExec([]int64{10, 20, 30, 40})
	p.RecordExec(nil) // exec without measurement keeps prior costs
	s := p.Snapshot()
	if s.Execs != 2 || s.WorkNS != 100 || s.Nodes != 4 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Hash != fmt.Sprintf("%016x", fp.Hash) {
		t.Fatalf("hash mismatch: %s", s.Hash)
	}
}
