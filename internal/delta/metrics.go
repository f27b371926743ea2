package delta

import "repro/internal/obs"

// Materialized-view instrumentation on the process-global registry,
// aggregated across every handle in the process. Per-handle counts
// remain available via Stats.
var (
	metricUpdates = obs.Default().NewCounter("faq_delta_updates_total",
		"Materialized-view updates applied (any strategy).")
	metricRecomputes = obs.Default().NewCounter("faq_delta_recompute_fallbacks_total",
		"Updates served by group recompute (the recompute strategy) instead of delta propagation.")
	metricIndexBuilds = obs.Default().NewCounter("faq_delta_index_builds_total",
		"Sorted indexes built from scratch for a view's delta-join probe sites, including rebases that had to build afresh.")
	metricIndexRebases = obs.Default().NewCounter("faq_delta_index_rebases_total",
		"Sorted indexes carried across a fold that rewrote the base rows they order, instead of rebuilt.")
	metricFolds = obs.Default().NewCounter("faq_delta_folds_total",
		"View tails folded into their base once |tail|^2 > |base|, one per retained factor or message folded.")
)
