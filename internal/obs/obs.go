// Package obs is the observability layer of the repo: a structured tracing
// span model (run → phase → job → task-attempt) with pluggable sinks, the
// shared MapReduce counter vector, and a race-safe metrics registry
// (counters, gauges, fixed-bucket histograms).
//
// The package sits below `internal/mr` and `internal/core` (it imports
// neither), so both can emit events into the same sink: the engine opens a
// job span per mr.Job and a task span per task attempt; the clustering
// pipeline wraps them in phase and run spans. Every such span is a Span
// handle from Open, closed in a defer. With a nil Tracer Open returns the
// inert zero Span: no clock reads, no allocations, no events — which is
// what keeps the engine's hot-path benchmarks allocation-identical to an
// untraced build (pinned by internal/mr/bench_test.go and the chaos
// trace-identity tests).
//
// Built-in sinks: JSONLTracer (one JSON object per event, a replayable
// trace file; ReadJSONL decodes it), Forest (every span of the stream,
// behind p3ctrace's analysis, which WriteText renders for p3ctrace and for
// p3crun -report alike, and the ops server's /runs and /workers),
// FlightRecorder (the last N events for
// post-mortems), and MemTracer (in-memory capture with structural
// validation, for tests). Multi fans one event stream out to several
// sinks.
package obs

import (
	"sync/atomic"
	"time"
)

// SpanID identifies one span. IDs are unique within a process (allocated
// from one atomic counter); 0 is "no span" and marks a root.
type SpanID int64

var spanIDs atomic.Int64

// NewSpanID allocates a process-unique span ID. Callers allocate IDs
// (rather than tracers) so one event stream can fan out to multiple sinks
// that agree on identity.
func NewSpanID() SpanID { return SpanID(spanIDs.Add(1)) }

// SpanKind classifies a span. Kinds are ordered by nesting depth: a span's
// parent must be of a strictly shallower kind (run > phase > job > task),
// which MemTracer.Validate enforces.
type SpanKind uint8

const (
	// KindRun is one end-to-end pipeline execution.
	KindRun SpanKind = 1 + iota
	// KindPhase is one pipeline phase (histograms, core-generation, em, …).
	KindPhase
	// KindJob is one MapReduce job execution.
	KindJob
	// KindTask is one task attempt (map/reduce), or the job's shuffle/merge
	// step (Task = -1, Phase = "shuffle").
	KindTask
	// KindStep is one sub-phase inside a task attempt — the worker-side
	// telemetry spans (map-exec, spill-write, segment-merge, frame-encode).
	// Step spans may overlap as siblings (a spill interleaves with the map
	// record loop); only the kind nesting is structural.
	KindStep
)

// String names the kind.
func (k SpanKind) String() string {
	switch k {
	case KindRun:
		return "run"
	case KindPhase:
		return "phase"
	case KindJob:
		return "job"
	case KindTask:
		return "task"
	case KindStep:
		return "step"
	default:
		return "unknown"
	}
}

// Outcome is how a span ended.
type Outcome uint8

const (
	// OutcomeOK is a successful completion.
	OutcomeOK Outcome = iota
	// OutcomeFault is an attempt killed by injected fault (retryable).
	OutcomeFault
	// OutcomeCancelled is an attempt aborted by a sibling's permanent
	// failure.
	OutcomeCancelled
	// OutcomeError is a real (non-injected, non-retryable) failure.
	OutcomeError
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeFault:
		return "fault"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeError:
		return "error"
	default:
		return "unknown"
	}
}

// PointKind classifies a point (instantaneous) event within a span.
type PointKind uint8

const (
	// PointFault marks the position where an injected failure killed the
	// attempt; Phase distinguishes map and reduce faults.
	PointFault PointKind = 1 + iota
	// PointRetry marks that a failed attempt will be retried.
	PointRetry
	// PointStraggler marks a simulated straggler delay; Seconds carries the
	// charge.
	PointStraggler
	// PointCancel marks a task giving up before starting an attempt because
	// its run was cancelled.
	PointCancel
	// PointSample carries a periodic worker resource snapshot (Sample is
	// non-nil); emitted by the multiprocess backend's worker telemetry.
	PointSample
	// PointMetric carries one algorithm-level scalar (Name is the metric
	// name, Value the observation, Task the iteration index where one
	// applies). Emitted driver-side only — metric points never cross the
	// worker telemetry wire — so they are deterministic across backends.
	PointMetric
)

// String names the point kind.
func (p PointKind) String() string {
	switch p {
	case PointFault:
		return "fault"
	case PointRetry:
		return "retry"
	case PointStraggler:
		return "straggler"
	case PointCancel:
		return "cancel"
	case PointSample:
		return "sample"
	case PointMetric:
		return "metric"
	default:
		return "unknown"
	}
}

// ResourceSample is one worker-process resource snapshot, taken by the
// in-worker sampler (stdlib-only: /proc/self/stat, /proc/self/statm, a
// spill-directory walk, and the framing layer's write-buffer depth).
// CPUSeconds is cumulative since process start, so a consumer derives
// utilization from the delta between two samples; the rest are gauges.
type ResourceSample struct {
	// CPUSeconds is cumulative user+system CPU time of the worker process.
	CPUSeconds float64 `json:"cpu_s"`
	// RSSBytes is the resident set size.
	RSSBytes int64 `json:"rss_b"`
	// SpillBytes is the byte total of the worker's spill directory.
	SpillBytes int64 `json:"spill_b"`
	// QueueBytes is the result-pipe backpressure proxy: bytes sitting in
	// the worker's framed write buffer when it last pushed a frame.
	QueueBytes int64 `json:"queue_b"`
}

// Start opens a span. All fields are set by the emitting layer; Task,
// Attempt and Phase are meaningful for KindTask only (Task -1 denotes the
// job-level shuffle/merge span).
type Start struct {
	ID     SpanID
	Parent SpanID
	Kind   SpanKind
	// Name is the run label, phase name, or job name (task spans carry
	// their job's name).
	Name    string
	Task    int
	Attempt int
	// Phase is "map", "reduce" or "shuffle" for task spans, "" otherwise.
	Phase string
	// At, when non-zero, is the event's capture time — used by the
	// multiprocess backend to stamp worker-originated events with their
	// clock-aligned driver time instead of the sink's write time. Zero
	// means "now" (every sink falls back to its own clock).
	At time.Time
}

// End closes a span. It repeats the identity fields of the Start so sinks
// can stay stateless.
type End struct {
	ID      SpanID
	Kind    SpanKind
	Name    string
	Task    int
	Attempt int
	Phase   string
	Outcome Outcome
	// Err is the error text for non-OK outcomes.
	Err string
	// RealSeconds is the measured wall-clock duration of the span.
	RealSeconds float64
	// SimulatedSeconds is the modeled-cluster charge attributed to the
	// span: the cost-model job seconds for job spans, the straggler charge
	// for task spans, the accumulated delta for phase and run spans.
	SimulatedSeconds float64
	// Counters is the span's committed counter delta (a successful
	// attempt's counters; a job's total; a phase's/run's engine delta).
	Counters Counters
	// Wasted is the discarded work: a failed attempt's partial counters,
	// or the aggregate wasted counters for job/phase/run spans.
	Wasted Counters
	// Retries is the number of retried attempts the span absorbed.
	Retries int64
	// Worker identifies the worker process that executed a task attempt, for
	// backends that place attempts on OS processes ("" for in-process
	// execution). Lets offline analysis attribute straggler and retry waste
	// to the worker that burned it.
	Worker string
	// At, when non-zero, is the aligned capture time (see Start.At).
	At time.Time
}

// Point is an instantaneous event within a span.
type Point struct {
	// Span is the enclosing span (the task attempt for fault/straggler
	// points; the job span for pre-attempt cancellations).
	Span SpanID
	Kind PointKind
	// Name, Task, Attempt, Phase identify the attempt as in Start.
	Name    string
	Task    int
	Attempt int
	Phase   string
	// Seconds carries the straggler charge for PointStraggler.
	Seconds float64
	// Value carries the observation for PointMetric (Name is the metric
	// name; Task the iteration index where one applies).
	Value float64
	// Worker identifies the worker process the event occurred on (see
	// End.Worker); "" for in-process execution.
	Worker string
	// Sample carries the resource snapshot for PointSample, nil otherwise.
	Sample *ResourceSample
	// At, when non-zero, is the aligned capture time (see Start.At).
	At time.Time
}

// Tracer receives structured span events. Implementations must be safe for
// concurrent use: the engine emits task events from many goroutines.
// Methods must not retain references into the event structs beyond the
// call (they are passed by value, so this holds naturally).
//
// Tracing is pure observation: a Tracer must not feed back into execution,
// and the engine guarantees that enabling one cannot change a single
// output bit (pinned by the chaos trace-identity tests).
type Tracer interface {
	Begin(s Start)
	End(e End)
	Point(p Point)
}

// Span is the handle of one open span, from Open to End. The zero Span,
// which Open returns for a nil Tracer, is inert: its ID is 0 and End does
// nothing. A driver opens a span and closes it in a defer, so every exit
// closes it exactly once; a panic closes it with the err set by then:
//
//	sp := obs.Open(tr, obs.Start{Parent: parent, Kind: obs.KindJob, Name: name})
//	defer func() { sp.End(err, end) }()
type Span struct {
	tr    Tracer
	start Start
	began time.Time
}

// Open allocates a span ID, emits s with it, and reads the clock the span's
// RealSeconds is measured from. For a nil tr it returns the zero Span
// without a clock read or an allocation.
func Open(tr Tracer, s Start) Span {
	if tr == nil {
		return Span{}
	}
	s.ID = NewSpanID()
	tr.Begin(s)
	return Span{tr: tr, start: s, began: Now()}
}

// ID returns the span's ID, 0 for the zero Span: the Parent of its
// children.
func (sp Span) ID() SpanID { return sp.start.ID }

// End closes the span. ID, Kind, Name, Task, Attempt and Phase come from the
// Start and RealSeconds from Open's clock read; e supplies the rest. A
// non-nil err sets Err, and turns an OK outcome into OutcomeError. On the
// zero Span End does nothing, not even format err.
func (sp Span) End(err error, e End) {
	if sp.tr == nil {
		return
	}
	s := sp.start
	e.ID, e.Kind, e.Name, e.Task, e.Attempt, e.Phase = s.ID, s.Kind, s.Name, s.Task, s.Attempt, s.Phase
	e.RealSeconds = Since(sp.began).Seconds()
	if err != nil {
		e.Err = err.Error()
		if e.Outcome == OutcomeOK {
			e.Outcome = OutcomeError
		}
	}
	sp.tr.End(e)
}

// Emit sends p to tr. For a nil tr it does nothing: no clock read, no
// allocation. Outside this package every point goes through Emit, so an
// untraced run pays for none.
func Emit(tr Tracer, p Point) {
	if tr != nil {
		tr.Point(p)
	}
}

// multiTracer fans events out to several sinks in order.
type multiTracer []Tracer

func (m multiTracer) Begin(s Start) {
	for _, t := range m {
		t.Begin(s)
	}
}

func (m multiTracer) End(e End) {
	for _, t := range m {
		t.End(e)
	}
}

func (m multiTracer) Point(p Point) {
	for _, t := range m {
		t.Point(p)
	}
}

// Multi combines tracers into one that forwards every event to each, in
// order. Nil entries are dropped; Multi() and Multi(nil) return nil, and a
// single sink is returned unwrapped.
func Multi(ts ...Tracer) Tracer {
	out := make(multiTracer, 0, len(ts))
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
