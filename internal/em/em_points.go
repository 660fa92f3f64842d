package em

import (
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

// activeWeightFloor is the mixing proportion below which a component is
// considered collapsed for the active-cluster count.
const activeWeightFloor = 1e-6

// activeClusters counts components whose mixing proportion is still above
// the floor — the "how many clusters survived" convergence signal.
func activeClusters(model *Model) int {
	n := 0
	for _, c := range model.Components {
		if c.Weight > activeWeightFloor {
			n++
		}
	}
	return n
}

// emitConvergence publishes one iteration's convergence state: typed
// metric points on the EM phase span (per-iteration series for traces, the
// span forest's /runs view, the flight recorder and `p3ctrace`) and the
// p3c_em_* registry
// families (latest-value gauges for /metrics). Driver-side only, after the
// iteration's jobs have reduced — the values are deterministic functions
// of the reduced stats, so they are bit-identical across backends, and
// with tracing and metrics off both sinks are nil and ignore them.
func emitConvergence(engine *mr.Engine, span obs.SpanID, it int, meanLL, meanH float64, model *Model) {
	active := activeClusters(model)
	tr := engine.Tracer()
	obs.Emit(tr, obs.Point{Span: span, Kind: obs.PointMetric, Name: "em_log_likelihood", Task: it, Value: meanLL})
	obs.Emit(tr, obs.Point{Span: span, Kind: obs.PointMetric, Name: "em_resp_entropy", Task: it, Value: meanH})
	obs.Emit(tr, obs.Point{Span: span, Kind: obs.PointMetric, Name: "em_active_clusters", Task: it, Value: float64(active)})
	reg := engine.Metrics()
	reg.Counter("p3c_em_iterations_total").Inc()
	reg.Gauge("p3c_em_log_likelihood").Set(meanLL)
	reg.Gauge("p3c_em_resp_entropy").Set(meanH)
	reg.Gauge("p3c_em_active_clusters").Set(float64(active))
}
