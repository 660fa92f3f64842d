// Package spanbalance is the seeded corpus for the spanbalance analyzer:
// outside internal/obs a span opens only as a Span handle from obs.Open, ended
// exactly once by a defer in the opening function or returned to the
// caller, and a point goes out through obs.Emit; any direct Tracer method is
// a finding. The point cases are the tracenil corpus
// (testdata/src/tracenil), checked by the same analyzer.
package spanbalance

import "p3cmr/internal/lint/testdata/src/exempt/internal/obs"

// --- non-finding shapes -----------------------------------------------

// goodDefer ends the handle with a deferred End: defers run on every exit.
func goodDefer(tr obs.Tracer, work func() error) error {
	sp := obs.Open(tr, obs.Start{Name: "job"})
	defer sp.End(nil, obs.End{})
	return work()
}

// goodDeferClosure ends the handle in a deferred closure, so the End sees the
// function's final error and outcome.
func goodDeferClosure(tr obs.Tracer, work func() (int, error)) (n int, err error) {
	sp := obs.Open(tr, obs.Start{Name: "attempt"})
	var end obs.End
	defer func() { sp.End(err, end) }()
	n, err = work()
	if err != nil {
		return 0, err
	}
	end = obs.End{}
	return n, nil
}

// goodPerAttempt opens one span per loop iteration in a function of its
// own, so each deferred End runs when its attempt returns.
func goodPerAttempt(tr obs.Tracer, attempts int, try func(int) error) error {
	var err error
	for a := 0; a < attempts; a++ {
		if err = goodDefer(tr, func() error { return try(a) }); err == nil {
			return nil
		}
	}
	return err
}

// goodChild nests a span in a closure: each function literal is checked on
// its own, and the outer handle's name does not leak into it.
func goodChild(tr obs.Tracer, work func()) {
	sp := obs.Open(tr, obs.Start{Name: "outer"})
	defer sp.End(nil, obs.End{})
	func() {
		sp := obs.Open(tr, obs.Start{Parent: sp.ID(), Name: "inner"})
		defer sp.End(nil, obs.End{})
		work()
	}()
}

// scope carries an open span to the caller.
type scope struct{ span obs.Span }

// goodHandoff returns the scope holding the handle: the caller takes over
// the closing.
func goodHandoff(tr obs.Tracer, name string) *scope {
	ps := &scope{}
	ps.span = obs.Open(tr, obs.Start{Name: name})
	return ps
}

// goodReturn returns the handle itself.
func goodReturn(tr obs.Tracer) obs.Span {
	return obs.Open(tr, obs.Start{Name: "returned"})
}

// goodEnd is the caller's half of the handoff: the scope's End is not an
// Open site.
func (ps *scope) goodEnd(err error) {
	ps.span.End(err, obs.End{})
}

// goodReplay forwards a Begin opened elsewhere, as a trace replay does; the
// allow names why.
func goodReplay(tr obs.Tracer, s obs.Start) {
	//lint:allow spanbalance replay: the span was opened by the traced process and its End is a later event
	tr.Begin(s)
}

// --- finding shapes ---------------------------------------------------

// badRawBegin opens and closes a span without a handle.
func badRawBegin(tr obs.Tracer, work func()) {
	tr.Begin(obs.Start{Name: "raw"}) // want "direct Tracer.Begin"
	work()
	tr.End(obs.End{}) // want "direct Tracer.End"
}

// badNoEnd never ends the handle.
func badNoEnd(tr obs.Tracer, work func()) {
	sp := obs.Open(tr, obs.Start{Name: "open"}) // want "span sp is never Ended"
	_ = sp.ID()
	work()
}

// badEndedTwice defers the End and ends the handle again on the error path.
func badEndedTwice(tr obs.Tracer, err error) error {
	sp := obs.Open(tr, obs.Start{Name: "twice"}) // want "span sp is Ended 2 times"
	defer sp.End(err, obs.End{})
	if err != nil {
		sp.End(err, obs.End{})
		return err
	}
	return nil
}

// badEarlyReturn ends the handle in line, so the error path leaks it.
func badEarlyReturn(tr obs.Tracer, err error) error {
	sp := obs.Open(tr, obs.Start{Name: "early"}) // want "span sp is Ended outside a defer"
	if err != nil {
		return err
	}
	sp.End(nil, obs.End{})
	return nil
}

// badGoroutineEnd ends the handle in a defer of another function: the
// goroutine, not the opener, decides when the span closes.
func badGoroutineEnd(tr obs.Tracer, done chan struct{}) {
	sp := obs.Open(tr, obs.Start{Name: "async"}) // want "span sp is Ended outside a defer"
	go func() {
		defer sp.End(nil, obs.End{})
		close(done)
	}()
}

// badDiscarded drops the handle, so nothing can end the span.
func badDiscarded(tr obs.Tracer) {
	obs.Open(tr, obs.Start{Name: "dropped"}) // want "span handle from Open is not kept"
}
