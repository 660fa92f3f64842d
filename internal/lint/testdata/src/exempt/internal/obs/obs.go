// Package obs stands in for the module's observability package in the
// detclock and spanbalance corpora: its import path ends in internal/obs,
// so its clock reads and its direct Tracer calls are sanctioned and must
// produce no findings. The spanbalance corpus imports its Open and Emit.
package obs

import "time"

func Now() time.Time { return time.Now() }

func Since(t time.Time) time.Duration { return time.Since(t) }

// progressElapsed mimics the progress aggregator's live-elapsed derivation:
// clock reads inside internal/obs stay sanctioned even in new helpers.
func progressElapsed(start time.Time) float64 {
	return Since(start).Seconds()
}

var _ = progressElapsed

// Start, End, Point, Tracer, Span, Open and Emit mirror the shapes
// spanbalance keys on.
type Start struct {
	Parent int64
	Name   string
}

type End struct {
	Err string
}

type Point struct{ Name string }

type Tracer interface {
	Begin(s Start)
	End(e End)
	Point(p Point)
}

type Span struct {
	tr Tracer
	s  Start
}

// Open begins a span on a non-nil tr: inside internal/obs a raw Begin needs
// no allow.
func Open(tr Tracer, s Start) Span {
	if tr == nil {
		return Span{}
	}
	tr.Begin(s)
	return Span{tr: tr, s: s}
}

func (sp Span) ID() int64 { return 0 }

func (sp Span) End(err error, e End) {
	if sp.tr != nil {
		sp.tr.End(e)
	}
}

// Emit sends p to a non-nil tr.
func Emit(tr Tracer, p Point) {
	if tr != nil {
		tr.Point(p)
	}
}

// replay forwards a decoded Begin, as the trace reader does.
func replay(tr Tracer, s Start) {
	tr.Begin(s)
}

var _ = replay
