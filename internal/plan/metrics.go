package plan

import "repro/internal/obs"

// Plan-cache and fingerprint instrumentation on the process-global registry. The
// registry counters aggregate across every Cache instance in the
// process and are never reset (Prometheus counters are monotone);
// per-instance CacheStats remains the /stats snapshot.
var (
	metricCacheHits = obs.Default().NewCounter("faq_plan_cache_hits_total",
		"Plan-cache lookups served from cache (including singleflight joiners).")
	metricCacheMisses = obs.Default().NewCounter("faq_plan_cache_misses_total",
		"Plan-cache lookups that started a compile.")
	metricCacheCompiles = obs.Default().NewCounter("faq_plan_cache_compiles_total",
		"Plan compiles that completed successfully.")
	metricCompileNS = obs.Default().NewHistogram("faq_plan_compile_ns",
		"Duration of each plan compile that completed successfully (the cache-miss tail).",
		obs.DurationBucketsNS)
	metricCacheFailures = obs.Default().NewCounter("faq_plan_cache_failures_total",
		"Plan compiles that failed (entry dropped, waiters got the error).")
	metricCacheEvictions = obs.Default().NewCounter("faq_plan_cache_evictions_total",
		"Completed plans evicted by the LRU bound.")
	metricCacheWaits = obs.Default().NewCounter("faq_plan_cache_singleflight_waits_total",
		"Lookups that blocked on another goroutine's in-flight compile.")
	metricCanonInexact = obs.Default().NewCounter("faq_plan_canon_inexact_total",
		"Fingerprints whose canonical-labeling search ran out of budget (renamed twins may miss the cache).")
)
