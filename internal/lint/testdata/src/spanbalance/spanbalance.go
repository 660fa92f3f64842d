// Package spanbalance is the seeded corpus for the spanbalance analyzer:
// outside internal/obs a span opens only as a Span handle from Open, ended
// exactly once by a defer in the opening function or returned to the
// caller; a direct Tracer.Begin is a finding.
package spanbalance

// Start, End, Tracer, Span and Open mirror the obs shapes the analyzer keys
// on.
type Start struct {
	Parent int64
	Name   string
}

type End struct {
	Err string
}

type Tracer interface {
	Begin(s Start)
	End(e End)
}

type Span struct {
	tr Tracer
	s  Start
}

func Open(tr Tracer, s Start) Span {
	if tr == nil {
		return Span{}
	}
	//lint:allow spanbalance stands in for obs.Open, which the internal/obs exemption covers
	tr.Begin(s)
	return Span{tr: tr, s: s}
}

func (sp Span) ID() int64 { return 0 }

func (sp Span) End(err error, e End) {
	if sp.tr != nil {
		sp.tr.End(e)
	}
}

// --- non-finding shapes -----------------------------------------------

// goodDefer ends the handle with a deferred End: defers run on every exit.
func goodDefer(tr Tracer, work func() error) error {
	sp := Open(tr, Start{Name: "job"})
	defer sp.End(nil, End{})
	return work()
}

// goodDeferClosure ends the handle in a deferred closure, so the End sees
// the function's final error and outcome.
func goodDeferClosure(tr Tracer, work func() (int, error)) (n int, err error) {
	sp := Open(tr, Start{Name: "attempt"})
	var end End
	defer func() { sp.End(err, end) }()
	n, err = work()
	if err != nil {
		return 0, err
	}
	end = End{}
	return n, nil
}

// goodPerAttempt opens one span per loop iteration in a function of its
// own, so each deferred End runs when its attempt returns.
func goodPerAttempt(tr Tracer, attempts int, try func(int) error) error {
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
func goodChild(tr Tracer, work func()) {
	sp := Open(tr, Start{Name: "outer"})
	defer sp.End(nil, End{})
	func() {
		sp := Open(tr, Start{Parent: sp.ID(), Name: "inner"})
		defer sp.End(nil, End{})
		work()
	}()
}

// scope carries an open span to the caller.
type scope struct{ span Span }

// goodHandoff returns the scope holding the handle: the caller takes over
// the closing.
func goodHandoff(tr Tracer, name string) *scope {
	ps := &scope{}
	ps.span = Open(tr, Start{Name: name})
	return ps
}

// goodReturn returns the handle itself.
func goodReturn(tr Tracer) Span {
	return Open(tr, Start{Name: "returned"})
}

// goodEnd is the caller's half of the handoff: the scope's End is not an
// Open site.
func (ps *scope) goodEnd(err error) {
	ps.span.End(err, End{})
}

// goodReplay forwards a Begin opened elsewhere, as a trace replay does; the
// allow names why.
func goodReplay(tr Tracer, s Start) {
	//lint:allow spanbalance replay: the span was opened by the traced process and its End is a later event
	tr.Begin(s)
}

// --- finding shapes ---------------------------------------------------

// badRawBegin opens a span without a handle.
func badRawBegin(tr Tracer, work func()) {
	tr.Begin(Start{Name: "raw"}) // want "direct Tracer.Begin"
	work()
	tr.End(End{})
}

// badNoEnd never ends the handle.
func badNoEnd(tr Tracer, work func()) {
	sp := Open(tr, Start{Name: "open"}) // want "span sp is never Ended"
	_ = sp.ID()
	work()
}

// badEndedTwice defers the End and ends the handle again on the error path.
func badEndedTwice(tr Tracer, err error) error {
	sp := Open(tr, Start{Name: "twice"}) // want "span sp is Ended 2 times"
	defer sp.End(err, End{})
	if err != nil {
		sp.End(err, End{})
		return err
	}
	return nil
}

// badEarlyReturn ends the handle in line, so the error path leaks it.
func badEarlyReturn(tr Tracer, err error) error {
	sp := Open(tr, Start{Name: "early"}) // want "span sp is Ended outside a defer"
	if err != nil {
		return err
	}
	sp.End(nil, End{})
	return nil
}

// badGoroutineEnd ends the handle in a defer of another function: the
// goroutine, not the opener, decides when the span closes.
func badGoroutineEnd(tr Tracer, done chan struct{}) {
	sp := Open(tr, Start{Name: "async"}) // want "span sp is Ended outside a defer"
	go func() {
		defer sp.End(nil, End{})
		close(done)
	}()
}

// badDiscarded drops the handle, so nothing can end the span.
func badDiscarded(tr Tracer) {
	Open(tr, Start{Name: "dropped"}) // want "span handle from Open is not kept"
}
