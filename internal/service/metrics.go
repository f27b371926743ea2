package service

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// svcMetrics is a service's pre-bound metric handle set: one child per
// semiring on the configured registry (WithMetrics; a private registry
// by default, so independently constructed services don't share
// counters). Every handle is bound once in New — request paths only
// touch atomics.
type svcMetrics struct {
	requests         *obs.Counter
	fallbacks        *obs.Counter
	rejected         *obs.Counter
	errors           *obs.Counter
	shed             *obs.Counter
	deadlineExceeded *obs.Counter
	panics           *obs.Counter
	updates          *obs.Counter
	deltaFallbacks   *obs.Counter
	latency          *obs.Histogram
}

// bindMetrics registers (idempotently) the service metric families on r
// and binds the children for one semiring.
func bindMetrics(r *obs.Registry, name string) svcMetrics {
	return svcMetrics{
		requests: r.NewCounterVec("faq_service_requests_total",
			"Requests accepted for processing (solve, materialize, update).",
			"semiring").With(name),
		fallbacks: r.NewCounterVec("faq_service_fallbacks_total",
			"Requests served by the brute-force fallback path.",
			"semiring").With(name),
		rejected: r.NewCounterVec("faq_service_rejected_total",
			"Admission-control rejections (memory budget, disabled fallback).",
			"semiring").With(name),
		errors: r.NewCounterVec("faq_service_errors_total",
			"Requests that returned an error (any class).",
			"semiring").With(name),
		shed: r.NewCounterVec("faq_service_shed_total",
			"Requests shed by the in-flight gate (transient overload).",
			"semiring").With(name),
		deadlineExceeded: r.NewCounterVec("faq_service_deadline_exceeded_total",
			"Requests cut off by the per-request deadline.",
			"semiring").With(name),
		panics: r.NewCounterVec("faq_service_panics_total",
			"Panics recovered into typed internal errors at the service boundary.",
			"semiring").With(name),
		updates: r.NewCounterVec("faq_service_updates_total",
			"Materialized-view update batches applied.",
			"semiring").With(name),
		deltaFallbacks: r.NewCounterVec("faq_service_delta_fallbacks_total",
			"Updates served by the group recompute fallback.",
			"semiring").With(name),
		latency: r.NewHistogramVec("faq_service_request_ns",
			"End-to-end request latency (admission to answer), nanoseconds.",
			obs.DurationBucketsNS, "semiring").With(name),
	}
}

// WithMetrics binds the service's counters and latency histogram to
// children of r (labelled by semiring name) instead of a private
// registry — how an engine aggregates its per-semiring services onto
// one /metrics surface. Registration is idempotent, so any number of
// services can share r.
func WithMetrics(r *obs.Registry) Option { return func(c *config) { c.metrics = r } }

// WithTracer records one obs.Trace per request into t: the
// canonicalize → cache → bind → admission phases plus one span per GHD
// node, timed by the exec layer. A nil tracer disables tracing.
func WithTracer(t *obs.Tracer) Option { return func(c *config) { c.tracer = t } }

// recordTrace emits one solve trace from a request's Info. No-op
// without a configured tracer; the per-request cost is building the
// span slice, paid only when tracing is on (it is on in faqd).
func (sv *Service[T]) recordTrace(start time.Time, info *Info, err error) {
	if sv.cfg.tracer == nil {
		return
	}
	spans := make([]obs.Span, 0, 5+len(info.NodeNS))
	spans = append(spans,
		obs.Span{Name: "canonicalize", Node: -1, DurNS: info.CanonNS},
		obs.Span{Name: "cache", Node: -1, DurNS: info.PlanNS},
		obs.Span{Name: "admission", Node: -1, DurNS: info.AdmitNS},
		obs.Span{Name: "bind", Node: -1, DurNS: info.BindNS},
		obs.Span{Name: "exec", Node: -1, DurNS: info.ExecNS},
	)
	for v, ns := range info.NodeNS {
		spans = append(spans, obs.Span{Name: "exec.node", Node: v, DurNS: ns})
	}
	tr := obs.Trace{
		Time:     start,
		Semiring: sv.name,
		CacheHit: info.CacheHit,
		Fallback: info.Fallback,
		TotalNS:  info.TotalNS,
		Spans:    spans,
	}
	if info.PlanHash != 0 {
		tr.Fingerprint = fmt.Sprintf("%016x", info.PlanHash)
	}
	if err != nil {
		tr.Err = err.Error()
	}
	sv.cfg.tracer.Record(tr)
}
