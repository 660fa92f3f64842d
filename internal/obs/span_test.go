package obs

import (
	"errors"
	"testing"
)

// countingErr counts its Error calls, so a test can tell whether End
// formatted it.
type countingErr struct{ calls *int }

func (e countingErr) Error() string {
	*e.calls++
	return "boom"
}

// TestOpenNilTracerIsFree pins the zero-cost-when-off contract of the span
// handle: on a nil tracer Open and an error End allocate nothing, the span
// has no ID, and the error is never formatted.
func TestOpenNilTracerIsFree(t *testing.T) {
	calls := 0
	var err error = countingErr{&calls}
	allocs := testing.AllocsPerRun(100, func() {
		sp := Open(nil, Start{Kind: KindTask, Name: "job", Task: 3, Phase: "map"})
		if sp.ID() != 0 {
			t.Fatalf("nil-tracer span has ID %d, want 0", sp.ID())
		}
		sp.End(err, End{Outcome: OutcomeFault})
	})
	if allocs != 0 {
		t.Errorf("Open+End on a nil tracer: %v allocs/op, want 0", allocs)
	}
	if calls != 0 {
		t.Errorf("End on a nil-tracer span formatted its error %d times, want 0", calls)
	}
}

// TestEmitNilTracerIsFree pins the zero-cost-when-off contract of points:
// on a nil tracer Emit allocates nothing, so no caller needs a guard.
func TestEmitNilTracerIsFree(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		Emit(nil, Point{Span: 7, Kind: PointMetric, Name: "em_log_likelihood", Task: 3, Value: -1.5})
	})
	if allocs != 0 {
		t.Errorf("Emit on a nil tracer: %v allocs/op, want 0", allocs)
	}
}

// TestEmitForwardsPoint pins that Emit hands the point to a live tracer
// as given.
func TestEmitForwardsPoint(t *testing.T) {
	m := NewMemTracer()
	p := Point{Span: 7, Kind: PointMetric, Name: "quality_outliers", Value: 12}
	Emit(m, p)
	if got := m.Points(); len(got) != 1 || got[0] != p {
		t.Errorf("Emit forwarded %+v, want [%+v]", got, p)
	}
}

// TestSpanEndFillsIdentity pins what End takes from the Start and from the
// caller: identity from Open, the error text, and an OK outcome turned into
// an error one while an explicit fault outcome is kept.
func TestSpanEndFillsIdentity(t *testing.T) {
	m := NewMemTracer()
	job := Open(m, Start{Kind: KindJob, Name: "job"})
	task := Open(m, Start{Parent: job.ID(), Kind: KindTask, Name: "job", Task: 2, Attempt: 1, Phase: "reduce"})
	task.End(errors.New("injected"), End{Outcome: OutcomeFault, Worker: "w1"})
	job.End(errors.New("failed"), End{SimulatedSeconds: 4})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	te, _ := m.EndOf(task.ID())
	if te.Kind != KindTask || te.Name != "job" || te.Task != 2 || te.Attempt != 1 || te.Phase != "reduce" ||
		te.Outcome != OutcomeFault || te.Err != "injected" || te.Worker != "w1" {
		t.Errorf("task End = %+v", te)
	}
	je, _ := m.EndOf(job.ID())
	if je.Outcome != OutcomeError || je.Err != "failed" || je.SimulatedSeconds != 4 || je.RealSeconds < 0 {
		t.Errorf("job End = %+v", je)
	}
}

// tracedStep is a driver in the span idiom: open, End in a defer, and
// leave early or panic as the case asks.
func tracedStep(tr Tracer, fail, panics bool) (err error) {
	sp := Open(tr, Start{Kind: KindJob, Name: "step"})
	defer func() { sp.End(err, End{}) }()
	if fail {
		return errors.New("early")
	}
	if panics {
		panic("step failed")
	}
	return nil
}

// TestDeferredEndClosesOnEveryExit pins that a deferred End closes the span
// exactly once whether the traced function returns normally, returns
// early with an error, or panics.
func TestDeferredEndClosesOnEveryExit(t *testing.T) {
	for _, tc := range []struct {
		name         string
		fail, panics bool
	}{
		{"ok", false, false},
		{"early-return", true, false},
		{"panic", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMemTracer()
			func() {
				defer func() {
					if r := recover(); (r != nil) != tc.panics {
						t.Errorf("recovered %v, want a panic: %v", r, tc.panics)
					}
				}()
				_ = tracedStep(m, tc.fail, tc.panics)
			}()
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			ends := m.Ends()
			if len(ends) != 1 {
				t.Fatalf("got %d Ends, want exactly 1", len(ends))
			}
			if tc.fail && (ends[0].Outcome != OutcomeError || ends[0].Err != "early") {
				t.Errorf("early return closed as %v %q, want error \"early\"", ends[0].Outcome, ends[0].Err)
			}
		})
	}
}
