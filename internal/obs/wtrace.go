package obs

import (
	"sort"
	"sync"
	"time"
)

// Worker telemetry event kinds — the wire vocabulary of the multiprocess
// backend's telemetry frames. A worker buffers TelemetryEvents locally and
// flushes them at task boundaries; the driver replays them into the run's
// span stream (TelBegin/TelEnd become KindStep spans under the task-attempt
// span, TelPoint becomes a Point on it) after aligning S to driver time via
// the TelClock reading exchanged at handshake.
const (
	// TelBegin opens a worker-local step span (ID is worker-local).
	TelBegin uint8 = 1 + iota
	// TelEnd closes a worker-local step span.
	TelEnd
	// TelPoint is an instantaneous event (fault point, resource sample).
	TelPoint
	// TelClock carries a bare clock reading (S) for handshake alignment.
	TelClock
)

// TelemetryEvent is one worker-side trace event in wire form. Only the
// fields relevant to Ev are set; S is always seconds since the worker's
// telemetry epoch (its process start), which the driver maps onto its own
// clock. IDs are worker-local — the driver remaps them to process-unique
// SpanIDs when it folds the events into the merged forest.
type TelemetryEvent struct {
	Ev      uint8
	S       float64
	ID      int64  // TelBegin/TelEnd: worker-local span id
	Name    string // TelBegin: step name ("map-exec", "spill-write", …)
	Phase   string // TelBegin/TelPoint: "map" or "reduce"
	Outcome uint8  // TelEnd: Outcome
	Err     string // TelEnd: error text for non-OK outcomes
	RealS   float64
	PKind   uint8 // TelPoint: PointKind
	Seconds float64
	Sample  *ResourceSample // TelPoint with PKind == PointSample
}

// TelemetryOrigin places one worker task attempt's telemetry in the
// driver's forest: the attempt span its steps and points attach to, the
// attempt's identity, the worker's name, and Align, which maps a worker's
// S onto the driver clock.
type TelemetryOrigin struct {
	Span          SpanID
	Job           string
	Task, Attempt int
	Worker        string
	Align         func(s float64) time.Time
}

// ReplayTelemetry folds one frame of worker events into tr. TelBegin and
// TelEnd become KindStep spans under o.Span, their worker-local IDs
// remapped to process-unique SpanIDs: a worker flushes complete begin/end
// sets (AbortOpen before every drain), so the remap is per frame. Ends
// stamp the worker and outcome; TelPoint becomes a Point on o.Span. Every
// timestamp is aligned onto the driver clock, so the sinks see one
// coherent forest.
func ReplayTelemetry(tr Tracer, events []TelemetryEvent, o TelemetryOrigin) {
	if tr == nil {
		return
	}
	ids := make(map[int64]SpanID, 4)
	for i := range events {
		ev := &events[i]
		switch ev.Ev {
		case TelBegin:
			id := NewSpanID()
			ids[ev.ID] = id
			tr.Begin(Start{ID: id, Parent: o.Span, Kind: KindStep,
				Name: ev.Name, Task: o.Task, Attempt: o.Attempt, Phase: ev.Phase,
				At: o.Align(ev.S)})
		case TelEnd:
			id, ok := ids[ev.ID]
			if !ok {
				continue
			}
			tr.End(End{ID: id, Kind: KindStep, Name: ev.Name,
				Task: o.Task, Attempt: o.Attempt, Phase: ev.Phase,
				Outcome: Outcome(ev.Outcome), Err: ev.Err,
				RealSeconds: ev.RealS, Worker: o.Worker, At: o.Align(ev.S)})
		case TelPoint:
			tr.Point(Point{Span: o.Span, Kind: PointKind(ev.PKind),
				Name: o.Job, Task: o.Task, Attempt: o.Attempt, Phase: ev.Phase,
				Seconds: ev.Seconds, Worker: o.Worker, Sample: ev.Sample,
				At: o.Align(ev.S)})
		}
	}
}

// WorkerTelemetry is the in-worker tracer of the multiprocess backend. It
// records step spans and point events into an in-memory buffer that the
// worker's single pipe-writer goroutine drains into telemetry frames at
// task boundaries — the sampler goroutine and the task goroutine never
// touch the pipe themselves. A nil *WorkerTelemetry is a valid no-op
// receiver for every method, so instrumented worker code needs no guards
// beyond holding the possibly-nil handle.
type WorkerTelemetry struct {
	epoch time.Time

	mu     sync.Mutex
	buf    []TelemetryEvent
	nextID int64
	open   map[int64]openStep

	stop chan struct{}
	done chan struct{}
}

// openStep tracks an unclosed step span for AbortOpen.
type openStep struct {
	name   string
	phase  string
	startS float64
}

// NewWorkerTelemetry returns a tracer whose epoch ("S = 0") is the moment
// of the call — worker processes create it at startup, before the
// handshake, so the TelClock reading sent with hello is on the same scale
// as every later event.
func NewWorkerTelemetry() *WorkerTelemetry {
	return &WorkerTelemetry{epoch: Now(), open: make(map[int64]openStep)}
}

// now is seconds since the epoch.
func (w *WorkerTelemetry) now() float64 { return Since(w.epoch).Seconds() }

// Clock returns a TelClock reading taken now. Sent right after hello, it
// gives the driver one (worker-seconds, driver-receive-time) pair to align
// the scales; the residual error is the one-way pipe latency, far below
// the sampler cadence.
func (w *WorkerTelemetry) Clock() TelemetryEvent {
	return TelemetryEvent{Ev: TelClock, S: w.now()}
}

// Step is a handle on an open worker-side step span. The zero Step (from a
// nil tracer) is a no-op.
type Step struct {
	w  *WorkerTelemetry
	id int64
}

// StartStep opens a step span. Steps may overlap freely (a spill interleaves
// with the map record loop); they all hang directly off the task attempt.
func (w *WorkerTelemetry) StartStep(name, phase string) Step {
	if w == nil {
		return Step{}
	}
	w.mu.Lock()
	w.nextID++
	id := w.nextID
	s := w.now()
	w.open[id] = openStep{name: name, phase: phase, startS: s}
	w.buf = append(w.buf, TelemetryEvent{Ev: TelBegin, S: s, ID: id, Name: name, Phase: phase})
	w.mu.Unlock()
	return Step{w: w, id: id}
}

// Done closes the step successfully.
func (st Step) Done() { st.end(OutcomeOK, "") }

// Fail closes the step with the given outcome and error text.
func (st Step) Fail(o Outcome, errText string) { st.end(o, errText) }

func (st Step) end(o Outcome, errText string) {
	w := st.w
	if w == nil {
		return
	}
	w.mu.Lock()
	if op, ok := w.open[st.id]; ok {
		delete(w.open, st.id)
		s := w.now()
		w.buf = append(w.buf, TelemetryEvent{
			Ev: TelEnd, S: s, ID: st.id, Name: op.name, Phase: op.phase,
			Outcome: uint8(o), Err: errText, RealS: s - op.startS,
		})
	}
	w.mu.Unlock()
}

// AbortOpen closes every still-open step with the given outcome — called on
// the worker's death and task-error paths so a flushed buffer never carries
// a dangling begin into the driver's span stream.
func (w *WorkerTelemetry) AbortOpen(o Outcome, errText string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	ids := make([]int64, 0, len(w.open))
	for id := range w.open {
		ids = append(ids, id)
	}
	// Deterministic close order (map iteration is not).
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s := w.now()
	for _, id := range ids {
		op := w.open[id]
		delete(w.open, id)
		w.buf = append(w.buf, TelemetryEvent{
			Ev: TelEnd, S: s, ID: id, Name: op.name, Phase: op.phase,
			Outcome: uint8(o), Err: errText, RealS: s - op.startS,
		})
	}
	w.mu.Unlock()
}

// RecordSample records one resource snapshot as a PointSample event.
func (w *WorkerTelemetry) RecordSample(s ResourceSample) {
	if w == nil {
		return
	}
	sample := s
	w.mu.Lock()
	w.buf = append(w.buf, TelemetryEvent{Ev: TelPoint, S: w.now(), PKind: uint8(PointSample), Sample: &sample})
	w.mu.Unlock()
}

// Drain returns the buffered events and empties the buffer — called by the
// pipe-writer goroutine when it assembles a telemetry frame. Returns nil
// when there is nothing to flush (so callers can skip the frame entirely).
func (w *WorkerTelemetry) Drain() []TelemetryEvent {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	out := w.buf
	w.buf = nil
	w.mu.Unlock()
	return out
}

// Pending reports how many events are buffered.
func (w *WorkerTelemetry) Pending() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf)
}

// StartSampler launches the resource-sampling goroutine: one immediate
// snapshot (so even sub-interval tasks surface at least one sample), then
// one per interval until StopSampler. spillDir is walked for on-disk spill
// bytes; queue reports the framing layer's buffered byte depth. No-op on a
// nil tracer or when a sampler is already running.
func (w *WorkerTelemetry) StartSampler(interval time.Duration, spillDir string, queue func() int64) {
	if w == nil || interval <= 0 {
		return
	}
	w.mu.Lock()
	if w.stop != nil {
		w.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	w.stop, w.done = stop, done
	w.mu.Unlock()

	go func() {
		defer close(done)
		w.RecordSample(CollectResourceSample(spillDir, queue))
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				w.RecordSample(CollectResourceSample(spillDir, queue))
			}
		}
	}()
}

// StopSampler stops the sampling goroutine and waits for it to exit. Safe
// to call without a running sampler.
func (w *WorkerTelemetry) StopSampler() {
	if w == nil {
		return
	}
	w.mu.Lock()
	stop, done := w.stop, w.done
	w.stop, w.done = nil, nil
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
