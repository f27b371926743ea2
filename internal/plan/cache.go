package plan

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
)

// compileSite injects faults into the singleflight compile path: an
// error-mode hit fails the flight (and, like any failed compile, is not
// cached — waiters see the error, a later request retries); a panic-mode
// hit exercises the panic-settle path below.
var compileSite = fault.Register("plan.compile")

// DefaultCacheSize is the plan capacity a zero/negative NewCache argument
// falls back to.
const DefaultCacheSize = 256

// Cache is a concurrent LRU of compiled plans with singleflight
// compilation: when N goroutines request the same (not yet cached) key
// simultaneously, exactly one runs the compile function while the others
// block on the entry's ready channel and share the result. Failed
// compiles are not cached — the entry is removed so a later request
// retries — but every waiter of the failed flight receives the error.
//
// Eviction is strict LRU over completed entries, bounded by capacity;
// in-flight entries are never evicted (they are pinned until their
// compile resolves), so the momentary size can exceed capacity by the
// number of concurrent distinct compiles, settling back under the bound
// as flights land.
type Cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // key -> element; Value is *cacheEntry
	lru      *list.List               // front = most recently used

	hits, misses, compiles, failures, evictions, waits int64
}

type cacheEntry struct {
	key   string
	plan  *Plan
	err   error
	ready chan struct{} // closed when plan/err are set
}

// NewCache returns an empty cache bounded to the given number of plans
// (capacity < 1 uses DefaultCacheSize).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = DefaultCacheSize
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// Get returns the cached plan for key, compiling it with compile on a
// miss. The second result reports whether the plan was served from cache
// (true also for waiters that joined an in-flight compile — they paid no
// compile work themselves).
func (c *Cache) Get(key string, compile func() (*Plan, error)) (*Plan, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.lru.MoveToFront(el)
		c.hits++
		metricCacheHits.Inc()
		if !entryReady(ent) {
			// Joining another goroutine's in-flight compile: a
			// singleflight wait, counted before blocking on ready.
			c.waits++
			metricCacheWaits.Inc()
		}
		c.mu.Unlock()
		<-ent.ready
		if ent.err != nil {
			return nil, true, ent.err
		}
		ent.plan.recordHit()
		return ent.plan, true, nil
	}
	ent := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = c.lru.PushFront(ent)
	c.misses++
	metricCacheMisses.Inc()
	c.mu.Unlock()

	// Singleflight: only this goroutine compiles key. The deferred
	// settle also runs if compile panics (e.g. under an http handler's
	// recover), so waiters are released and the key is not poisoned —
	// the panic re-propagates after cleanup.
	var p *Plan
	var err error
	settled := false
	start := time.Now()
	settle := func() {
		c.mu.Lock()
		ent.plan, ent.err = p, err
		close(ent.ready)
		if err != nil {
			c.failures++
			metricCacheFailures.Inc()
			if el, ok := c.entries[key]; ok && el.Value.(*cacheEntry) == ent {
				c.lru.Remove(el)
				delete(c.entries, key)
			}
		} else {
			c.compiles++
			metricCacheCompiles.Inc()
			metricCompileNS.ObserveSince(start)
			c.evictLocked()
		}
		c.mu.Unlock()
	}
	defer func() {
		if !settled {
			err = fmt.Errorf("plan: compile panicked for key %q", key)
			settle()
		}
	}()
	if err = compileSite.Hit(nil); err == nil {
		p, err = compile()
	}
	settled = true
	settle()
	return p, false, err
}

// evictLocked removes least-recently-used completed entries until the
// size bound holds. Called with mu held.
func (c *Cache) evictLocked() {
	for c.lru.Len() > c.capacity {
		el := c.lru.Back()
		evicted := false
		for el != nil {
			ent := el.Value.(*cacheEntry)
			prev := el.Prev()
			if entryReady(ent) {
				c.lru.Remove(el)
				delete(c.entries, ent.key)
				c.evictions++
				metricCacheEvictions.Inc()
				evicted = true
				break
			}
			el = prev // in-flight: pinned, look further up
		}
		if !evicted {
			return // everything over budget is in flight
		}
	}
}

func entryReady(ent *cacheEntry) bool {
	select {
	case <-ent.ready:
		return true
	default:
		return false
	}
}

// Len returns the number of resident entries (including in-flight ones).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CacheStats is the JSON-friendly counter snapshot for /stats.
type CacheStats struct {
	Capacity  int   `json:"capacity"`
	Len       int   `json:"len"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Compiles  int64 `json:"compiles"`
	Failures  int64 `json:"failures"`
	Evictions int64 `json:"evictions"`
	Waits     int64 `json:"waits"` // singleflight joins on in-flight compiles
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity:  c.capacity,
		Len:       c.lru.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Compiles:  c.compiles,
		Failures:  c.failures,
		Evictions: c.evictions,
		Waits:     c.waits,
	}
}

// Plans snapshots every completed resident plan, most recently used
// first — the /stats plan table.
func (c *Cache) Plans() []Snapshot {
	c.mu.Lock()
	var plans []*Plan
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if ent := el.Value.(*cacheEntry); entryReady(ent) && ent.err == nil {
			plans = append(plans, ent.plan)
		}
	}
	c.mu.Unlock()
	out := make([]Snapshot, len(plans))
	for i, p := range plans {
		out[i] = p.Snapshot()
	}
	return out
}
