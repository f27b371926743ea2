// Package exec provides the bounded worker-pool scheduler behind every
// parallel execution path in the repository: the centralized GHD solver
// dispatches sibling subtrees of its bottom-up pass onto the pool (the
// node computations of Theorem G.3 are independent across subtrees and
// per-node messages are bounded by N tuples, eq. 24, so subtree work is
// balanced), the relation kernel splits the fused GHD-node walk and the
// non-prefix join's emission into blocks across workers, and the
// protocol engine reduces star children locally in parallel — while the
// netsim round ledger itself stays strictly sequential so measured
// communication costs remain byte-identical to the sequential engine.
//
// Parallelism here is configuration, not semantics: every scheduler
// contract guarantees results bit-identical to sequential execution, so
// the repository's determinism invariant (equal relations have identical
// layouts) survives any worker count. Workers default to GOMAXPROCS;
// SetWorkers overrides the default pool, and callers can build private
// pools with New. Cancellation is errgroup-style: the first task error
// stops dispatch of not-yet-started tasks, in-flight tasks complete, and
// the recorded error is returned.
//
// The package also provides schedule-replay accounting: per-task costs
// measured on a real run (ForestTimed) are replayed under a simulated
// worker budget (Makespan), mirroring how internal/netsim books
// communication rounds on a simulated capacity ledger rather than on
// wall clocks.
package exec

import (
	"container/heap"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

func init() {
	// FAQ_WORKERS pins the default pool's parallelism for the whole
	// process — the hook `make test-workers` uses to re-run the
	// equivalence suites at 1/2/8 workers without editing any test.
	if v := os.Getenv("FAQ_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			SetWorkers(n)
		}
	}
}

// taskSite is the failpoint on Forest task dispatch: every node task of
// a GHD pass passes through it, so chaos runs can fail, delay, or cancel
// any scheduled unit of solver work. Disarmed it costs one atomic load
// per task.
var taskSite = fault.Register("exec.task")

// TaskPanic is the payload the pool re-panics on the calling goroutine
// when a task panicked inside a worker. Without this, a panic in a pool
// goroutine would crash the process with no recovery point; with it,
// parallel panics surface exactly where sequential execution would have
// panicked, so the service boundary's recover contains them at any
// worker count — the runtime enforcement of the "typed errors, never
// panics" contract.
type TaskPanic struct {
	Val   any    // the original panic value
	Stack []byte // stack of the panicking task goroutine
}

func (p *TaskPanic) String() string {
	return fmt.Sprintf("exec: task panicked: %v\n%s", p.Val, p.Stack)
}

// asTaskPanic wraps a recovered value, preserving an already-wrapped
// panic from a nested pool call.
func asTaskPanic(r any) *TaskPanic {
	if tp, ok := r.(*TaskPanic); ok {
		return tp
	}
	return &TaskPanic{Val: r, Stack: debug.Stack()}
}

// panicError smuggles a recovered task panic through the pool's error
// plumbing; it never escapes the package — every exit path converts it
// back into a panic on the calling goroutine.
type panicError struct{ p *TaskPanic }

func (e *panicError) Error() string { return e.p.String() }

// rethrow re-panics a captured task panic on the caller; no-op on nil
// or ordinary errors.
func rethrow(err error) {
	if pe, ok := err.(*panicError); ok {
		panic(pe.p)
	}
}

// wrapPanic (deferred) normalizes a panic escaping a sequential pool
// path into the same *TaskPanic the parallel paths produce, so callers
// see one panic payload shape at every worker count.
func wrapPanic() {
	if r := recover(); r != nil {
		panic(asTaskPanic(r))
	}
}

// protect wraps a task so that the exec.task failpoint gates it, a
// panic is captured as a *panicError instead of killing the worker
// goroutine, and the task is metered (duration histogram, busy time,
// in-flight gauge) — protect is the single choke point every Forest
// node task passes through, so instrumenting it covers sequential and
// parallel dispatch alike at zero allocations per task.
func protect(run func(v int) error) func(v int) error {
	return func(v int) (err error) {
		metricInFlight.Inc()
		t0 := time.Now()
		defer func() {
			d := time.Since(t0).Nanoseconds()
			metricInFlight.Dec()
			metricTaskNS.Observe(d)
			metricBusyNS.Add(d)
			metricTasks.Inc()
			if r := recover(); r != nil {
				err = &panicError{p: asTaskPanic(r)}
			}
		}()
		if err := taskSite.Hit(nil); err != nil {
			return err
		}
		return run(v)
	}
}

// defaultWorkers holds the process-wide parallelism override; zero or
// negative means "track GOMAXPROCS".
var defaultWorkers atomic.Int32

// Workers returns the default pool's current parallelism.
func Workers() int {
	if w := defaultWorkers.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers sets the default pool's parallelism and returns the
// previous raw setting — 0 when the pool was tracking GOMAXPROCS — so
// that `prev := SetWorkers(n); defer SetWorkers(prev)` restores the
// exact prior state, including the tracking default. n <= 0 restores
// the GOMAXPROCS default. Worker counts never change results — only
// scheduling.
func SetWorkers(n int) int {
	prev := int(defaultWorkers.Load())
	if n <= 0 {
		defaultWorkers.Store(0)
	} else {
		defaultWorkers.Store(int32(n))
	}
	return prev
}

// Pool is a bounded work scheduler. A Pool does not own long-lived
// goroutines: each call spawns at most Workers goroutines for its own
// duration, so pools nest freely (a Forest task may run partitioned
// kernel Maps) without deadlock.
type Pool struct {
	workers int // <= 0: track the package default
}

// New returns a pool with the given parallelism; workers <= 0 tracks
// the package default (SetWorkers / GOMAXPROCS).
func New(workers int) *Pool { return &Pool{workers: workers} }

var defaultPool = New(0)

// Default returns the shared default pool.
func Default() *Pool { return defaultPool }

// Workers returns the pool's current effective parallelism.
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return Workers()
	}
	return p.workers
}

// Map runs f(i) for every i in [0, n) across the pool and blocks until
// all calls return. With one worker it degenerates to a plain loop. A
// panicking call stops dispatch of not-yet-started indices and the first
// captured panic re-surfaces on the calling goroutine as a *TaskPanic —
// the same place a sequential loop's panic would land.
func (p *Pool) Map(n int, f func(i int)) {
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		defer wrapPanic()
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var panicked atomic.Bool
	var pmu sync.Mutex
	var tp *TaskPanic
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.Store(true)
							pmu.Lock()
							if tp == nil {
								tp = asTaskPanic(r)
							}
							pmu.Unlock()
						}
					}()
					f(i)
				}()
			}
		}()
	}
	wg.Wait()
	if tp != nil {
		panic(tp)
	}
}

// MapErr is Map with errgroup-style failure handling: the first error
// stops dispatch of not-yet-started indices, every started call runs to
// completion, and the lowest-index recorded error is returned. A panic
// in a worker is captured and re-panics on the calling goroutine.
func (p *Pool) MapErr(n int, f func(i int) error) error {
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		defer wrapPanic()
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = &panicError{p: asTaskPanic(r)}
						}
					}()
					return f(i)
				}()
				if err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			rethrow(err)
			return err
		}
	}
	return nil
}

// Forest runs one task per node of a rooted forest given by parent
// pointers (parent[v] == -1 marks a root), guaranteeing every node runs
// only after all of its children completed — the dependency structure of
// a bottom-up GHD pass. Independent subtrees dispatch concurrently
// across the pool. On failure, dispatch stops (in-flight tasks finish)
// and the error of the lowest-numbered failed node is returned.
//
// The synchronization is a happens-before edge from each child's
// completion to its parent's start, so a task may freely read state
// written by its children's tasks.
//
// Every task is gated by the exec.task failpoint and runs
// panic-contained: a panic inside a task (worker goroutine or not)
// re-surfaces as a *TaskPanic on the calling goroutine instead of
// killing the process, so a recover at the service boundary sees it at
// any worker count.
func (p *Pool) Forest(parent []int, run func(v int) error) error {
	n := len(parent)
	if n == 0 {
		return nil
	}
	run = protect(run)
	pending := make([]int, n)
	for _, pa := range parent {
		if pa >= 0 {
			pending[pa]++
		}
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		// Sequential: a worklist in children-before-parents order.
		for _, v := range seqOrder(parent) {
			if err := run(v); err != nil {
				rethrow(err)
				return err
			}
		}
		return nil
	}

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		queue    []int
		running  int
		failed   bool
		errNode  = -1
		firstErr error
	)
	for v := 0; v < n; v++ {
		if pending[v] == 0 {
			queue = append(queue, v)
		}
	}
	metricQueueDepth.Add(int64(len(queue)))
	worker := func() {
		mu.Lock()
		defer mu.Unlock()
		for {
			for len(queue) == 0 && running > 0 {
				cond.Wait()
			}
			if len(queue) == 0 {
				// running == 0: no task can ever become ready again.
				cond.Broadcast()
				return
			}
			v := queue[0]
			queue = queue[1:]
			metricQueueDepth.Dec()
			running++
			mu.Unlock()
			err := run(v)
			mu.Lock()
			running--
			if err != nil {
				if errNode == -1 || v < errNode {
					errNode, firstErr = v, err
				}
				failed = true
				metricQueueDepth.Add(-int64(len(queue)))
				queue = queue[:0] // cancel not-yet-started tasks
			} else if !failed {
				if pa := parent[v]; pa >= 0 {
					if pending[pa]--; pending[pa] == 0 {
						queue = append(queue, pa)
						metricQueueDepth.Inc()
					}
				}
			}
			cond.Broadcast()
		}
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	rethrow(firstErr)
	return firstErr
}

// seqOrder returns the deterministic children-before-parents order the
// sequential scheduler executes a forest in.
func seqOrder(parent []int) []int {
	n := len(parent)
	pending := make([]int, n)
	for _, pa := range parent {
		if pa >= 0 {
			pending[pa]++
		}
	}
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if pending[v] == 0 {
			order = append(order, v)
		}
	}
	for i := 0; i < len(order); i++ {
		if pa := parent[order[i]]; pa >= 0 {
			if pending[pa]--; pending[pa] == 0 {
				order = append(order, pa)
			}
		}
	}
	return order
}

// ForestCtx is Forest with cooperative cancellation: each node task
// first checks ctx and fails with ctx.Err() once the context is done, so
// a canceled request stops dispatching new GHD node tasks while in-flight
// ones complete — the per-request cancellation contract of the service
// layer. A nil ctx degenerates to Forest.
func (p *Pool) ForestCtx(ctx context.Context, parent []int, run func(v int) error) error {
	if ctx == nil {
		return p.Forest(parent, run)
	}
	return p.Forest(parent, func(v int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return run(v)
	})
}

// ForestTimed is Forest, additionally recording each task's wall-clock
// duration in nanoseconds (indexed by node). The cost vector feeds
// Makespan, the hardware-independent scalability accounting.
func (p *Pool) ForestTimed(parent []int, run func(v int) error) ([]int64, error) {
	costs := make([]int64, len(parent))
	err := p.Forest(parent, func(v int) error {
		t0 := time.Now()
		e := run(v)
		costs[v] = time.Since(t0).Nanoseconds()
		return e
	})
	return costs, err
}

// taskHeap orders ready tasks by (ready time, node id) — the replay's
// deterministic list-scheduling policy.
type taskHeap struct {
	at []int64
	id []int
}

func (h *taskHeap) Len() int { return len(h.id) }
func (h *taskHeap) Less(i, j int) bool {
	if h.at[i] != h.at[j] {
		return h.at[i] < h.at[j]
	}
	return h.id[i] < h.id[j]
}
func (h *taskHeap) Swap(i, j int) {
	h.at[i], h.at[j] = h.at[j], h.at[i]
	h.id[i], h.id[j] = h.id[j], h.id[i]
}
func (h *taskHeap) Push(x any) {
	t := x.([2]int64)
	h.at = append(h.at, t[0])
	h.id = append(h.id, int(t[1]))
}
func (h *taskHeap) Pop() any {
	n := len(h.id) - 1
	t := [2]int64{h.at[n], int64(h.id[n])}
	h.at, h.id = h.at[:n], h.id[:n]
	return t
}

// int64Heap is a min-heap of worker free times.
type int64Heap []int64

func (h int64Heap) Len() int           { return len(h) }
func (h int64Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h int64Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *int64Heap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *int64Heap) Pop() any {
	n := len(*h) - 1
	x := (*h)[n]
	*h = (*h)[:n]
	return x
}

// Makespan replays a Forest schedule with the given per-task costs on a
// simulated budget of workers and returns the schedule length: greedy
// list scheduling, ready tasks dispatched in (ready time, node id) order
// onto the earliest-free worker. With the costs recorded by ForestTimed
// on a sequential run, TotalCost(cost)/Makespan(...) is the speedup the
// DAG admits at that worker count — work/span accounting that is
// deterministic and independent of the number of physical cores the
// measuring host happens to have.
func Makespan(parent []int, cost []int64, workers int) int64 {
	n := len(parent)
	if n == 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	pending := make([]int, n)
	for _, pa := range parent {
		if pa >= 0 {
			pending[pa]++
		}
	}
	childMax := make([]int64, n)
	ready := &taskHeap{}
	heap.Init(ready)
	for v := 0; v < n; v++ {
		if pending[v] == 0 {
			heap.Push(ready, [2]int64{0, int64(v)})
		}
	}
	free := make(int64Heap, workers)
	heap.Init(&free)
	var span int64
	for ready.Len() > 0 {
		t := heap.Pop(ready).([2]int64)
		at, v := t[0], int(t[1])
		w := heap.Pop(&free).(int64)
		start := at
		if w > start {
			start = w
		}
		fin := start + cost[v]
		heap.Push(&free, fin)
		if fin > span {
			span = fin
		}
		if pa := parent[v]; pa >= 0 {
			if fin > childMax[pa] {
				childMax[pa] = fin
			}
			if pending[pa]--; pending[pa] == 0 {
				heap.Push(ready, [2]int64{childMax[pa], int64(pa)})
			}
		}
	}
	return span
}

// TotalCost sums a cost vector — the "work" term of the work/span
// speedup bound.
func TotalCost(cost []int64) int64 {
	var s int64
	for _, c := range cost {
		s += c
	}
	return s
}
