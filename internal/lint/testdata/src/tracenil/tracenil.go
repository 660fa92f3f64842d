// Package tracenil is the point corpus of the spanbalance analyzer. Outside
// internal/obs a point goes out through obs.Emit, which does nothing for a
// nil Tracer, so no caller guards a Tracer by hand and any direct
// Tracer.Point is a finding, guarded or not. The cases are the former
// tracenil corpus: its unguarded calls stay findings, and its hand-guarded
// calls (the guardedX functions) are findings now too, since obs.Emit
// replaces the guard. Calls on a metrics registry are not cases any more: a
// nil *obs.Registry hands out nil handles whose methods do nothing.
package tracenil

import "p3cmr/internal/lint/testdata/src/exempt/internal/obs"

// Registry and Config mirror the engine's metrics registry and config.
type Registry struct{}

func (*Registry) Inc(name string) {}

type Config struct {
	Tracer  obs.Tracer
	Metrics *Registry
}

type Engine struct{ cfg Config }

// --- non-finding shapes -----------------------------------------------

// goodEmit emits through obs.Emit, with no guard.
func (e *Engine) goodEmit(p obs.Point) {
	obs.Emit(e.cfg.Tracer, p)
}

// goodMetrics calls a registry without a guard: a nil registry is inert.
func (e *Engine) goodMetrics() {
	e.cfg.Metrics.Inc("tasks")
}

// goodEmitLater emits from a closure that runs later: Emit reads the handle
// when it runs.
func (e *Engine) goodEmitLater() func() {
	return func() { obs.Emit(e.cfg.Tracer, obs.Point{}) }
}

// goodConvergenceEmit is the fitter's shape: a batch of points and a
// registry leg, neither guarded.
func (e *Engine) goodConvergenceEmit(names []string) {
	for _, n := range names {
		obs.Emit(e.cfg.Tracer, obs.Point{Name: n})
	}
	e.cfg.Metrics.Inc("p3c_em_iterations_total")
}

// --- finding shapes ---------------------------------------------------

func (e *Engine) badUnguarded() {
	e.cfg.Tracer.Point(obs.Point{}) // want "direct Tracer.Point"
}

func (e *Engine) badWrongGuard(other *Engine) {
	if other.cfg.Tracer != nil { // guards a different handle
		e.cfg.Tracer.Point(obs.Point{}) // want "direct Tracer.Point"
	}
}

func (e *Engine) badGuardedLiteralRunsLater() func() {
	if e.cfg.Tracer != nil {
		return func() {
			e.cfg.Tracer.Point(obs.Point{}) // want "direct Tracer.Point"
		}
	}
	return func() {}
}

func handlerFactoryBad(tr obs.Tracer) func() {
	return func() {
		tr.Point(obs.Point{}) // want "direct Tracer.Point"
	}
}

// fanout forwards to a possibly-nil downstream handle held in a struct.
type fanout struct{ next obs.Tracer }

func (f *fanout) badSinkFanout(p obs.Point) {
	f.next.Point(p) // want "direct Tracer.Point"
}

func (e *Engine) badTelemetryFold(points []obs.Point) {
	for _, p := range points {
		e.cfg.Tracer.Point(p) // want "direct Tracer.Point"
	}
}

func (e *Engine) badGuardedGoroutine() {
	if e.cfg.Tracer != nil {
		go func() {
			e.cfg.Tracer.Point(obs.Point{}) // want "direct Tracer.Point"
		}()
	}
}

func (e *Engine) badConvergenceEmit() {
	e.cfg.Tracer.Point(obs.Point{Name: "em_log_likelihood"}) // want "direct Tracer.Point"
}

// badMethodValue takes the method without calling it: the call it makes
// later is just as unguarded.
func (e *Engine) badMethodValue() func(obs.Point) {
	return e.cfg.Tracer.Point // want "direct Tracer.Point"
}

// --- hand-guarded shapes: correct, but obs.Emit replaces the guard ------

func (e *Engine) guardedEnclosingIf(p obs.Point) {
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Point(p) // want "direct Tracer.Point"
	}
}

func (e *Engine) guardedHoistedLocal(p obs.Point) {
	tr := e.cfg.Tracer
	if tr != nil {
		tr.Point(p) // want "direct Tracer.Point"
	}
}

func (e *Engine) guardedEarlyReturn(p obs.Point) {
	if e.cfg.Tracer == nil {
		return
	}
	e.cfg.Tracer.Point(p) // want "direct Tracer.Point"
}

func (e *Engine) guardedConjunct(p obs.Point, enabled bool) {
	if enabled && e.cfg.Tracer != nil {
		e.cfg.Tracer.Point(p) // want "direct Tracer.Point"
	}
}

func (e *Engine) guardedElseBranch(p obs.Point) {
	if e.cfg.Tracer == nil {
		_ = p
	} else {
		e.cfg.Tracer.Point(p) // want "direct Tracer.Point"
	}
}

func guardedHandlerEarlyReturn(tr obs.Tracer) func() {
	return func() {
		if tr == nil {
			return
		}
		tr.Point(obs.Point{}) // want "direct Tracer.Point"
	}
}

func (f *fanout) guardedSinkFanout(p obs.Point) {
	if f.next != nil {
		f.next.Point(p) // want "direct Tracer.Point"
	}
}

func (e *Engine) guardedTelemetryFold(points []obs.Point) {
	tr := e.cfg.Tracer
	if tr == nil {
		return
	}
	for _, p := range points {
		tr.Point(p) // want "direct Tracer.Point"
	}
}

func (e *Engine) guardedGoroutineInnerGuard() {
	go func() {
		if e.cfg.Tracer == nil {
			return
		}
		e.cfg.Tracer.Point(obs.Point{}) // want "direct Tracer.Point"
	}()
}
