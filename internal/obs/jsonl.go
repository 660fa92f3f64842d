package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// jsonlLine is the wire form of one trace event: one JSON object per line.
// Identity fields repeat on end lines so a trace is greppable without
// reconstructing span state; zero-valued optionals are omitted to keep
// traces compact.
type jsonlLine struct {
	Ev      string          `json:"ev"` // "begin" | "end" | "point"
	TS      float64         `json:"ts"` // seconds since the tracer was created
	ID      int64           `json:"id,omitempty"`
	Parent  int64           `json:"parent,omitempty"`
	Span    int64           `json:"span,omitempty"` // point events: enclosing span
	Kind    string          `json:"kind,omitempty"`
	Name    string          `json:"name,omitempty"`
	Task    *int            `json:"task,omitempty"` // pointer: task 0 is valid, -1 = shuffle
	Attempt int             `json:"attempt,omitempty"`
	Phase   string          `json:"phase,omitempty"`
	Point   string          `json:"point,omitempty"`
	Outcome string          `json:"outcome,omitempty"`
	Err     string          `json:"err,omitempty"`
	RealS   float64         `json:"real_s,omitempty"`
	SimS    float64         `json:"sim_s,omitempty"`
	Seconds float64         `json:"seconds,omitempty"`
	Value   float64         `json:"value,omitempty"`
	Retries int64           `json:"retries,omitempty"`
	Worker  string          `json:"worker,omitempty"`
	Sample  *ResourceSample `json:"sample,omitempty"`
	Ctrs    *Counters       `json:"counters,omitempty"`
	Wasted  *Counters       `json:"wasted,omitempty"`

	// at, when non-zero, is the event's own capture time (Start/End/Point
	// At): the writer stamps TS from it instead of the write-time clock, so
	// clock-aligned worker events land at their true position on the
	// driver's timeline. Unexported — never marshaled.
	at time.Time
}

// JSONLTracer writes the event stream as JSON Lines to an io.Writer —
// the `-trace out.jsonl` format of cmd/p3crun. It buffers internally;
// call Close (or Flush) before reading the file. Safe for concurrent use.
//
// Write errors are sticky and reported by Close/Err — tracing must never
// fail the traced computation, so events after an error are dropped.
type JSONLTracer struct {
	mu    sync.Mutex
	w     *bufio.Writer
	start time.Time
	err   error
}

// NewJSONLTracer wraps w. The caller retains ownership of w (Close flushes
// the tracer but does not close w).
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: bufio.NewWriter(w), start: time.Now()}
}

func (t *JSONLTracer) write(line *jsonlLine) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if line.at.IsZero() {
		line.TS = time.Since(t.start).Seconds()
	} else {
		line.TS = line.at.Sub(t.start).Seconds()
	}
	b, err := json.Marshal(line)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return
	}
	t.err = t.w.WriteByte('\n')
}

func taskPtr(kind SpanKind, task int) *int {
	if kind != KindTask && kind != KindStep {
		return nil
	}
	return &task
}

func ctrPtr(c Counters) *Counters {
	if c == (Counters{}) {
		return nil
	}
	return &c
}

// beginLine, endLine and pointLine build the wire form of one event. TS is
// left zero for the caller (JSONLTracer stamps write time; FlightRecorder
// replays the capture timestamp).
func beginLine(s Start) *jsonlLine {
	return &jsonlLine{
		Ev:      "begin",
		ID:      int64(s.ID),
		Parent:  int64(s.Parent),
		Kind:    s.Kind.String(),
		Name:    s.Name,
		Task:    taskPtr(s.Kind, s.Task),
		Attempt: s.Attempt,
		Phase:   s.Phase,
		at:      s.At,
	}
}

func endLine(e End) *jsonlLine {
	return &jsonlLine{
		Ev:      "end",
		ID:      int64(e.ID),
		Kind:    e.Kind.String(),
		Name:    e.Name,
		Task:    taskPtr(e.Kind, e.Task),
		Attempt: e.Attempt,
		Phase:   e.Phase,
		Outcome: e.Outcome.String(),
		Err:     e.Err,
		RealS:   e.RealSeconds,
		SimS:    e.SimulatedSeconds,
		Retries: e.Retries,
		Worker:  e.Worker,
		Ctrs:    ctrPtr(e.Counters),
		Wasted:  ctrPtr(e.Wasted),
		at:      e.At,
	}
}

func pointLine(p Point) *jsonlLine {
	return &jsonlLine{
		Ev:      "point",
		Span:    int64(p.Span),
		Point:   p.Kind.String(),
		Name:    p.Name,
		Task:    taskPtr(KindTask, p.Task),
		Attempt: p.Attempt,
		Phase:   p.Phase,
		Seconds: p.Seconds,
		Value:   p.Value,
		Worker:  p.Worker,
		Sample:  p.Sample,
		at:      p.At,
	}
}

// Begin implements Tracer.
func (t *JSONLTracer) Begin(s Start) { t.write(beginLine(s)) }

// End implements Tracer.
func (t *JSONLTracer) End(e End) { t.write(endLine(e)) }

// Point implements Tracer.
func (t *JSONLTracer) Point(p Point) { t.write(pointLine(p)) }

// Flush forces buffered lines out.
func (t *JSONLTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Close flushes and returns the first write error, if any.
func (t *JSONLTracer) Close() error {
	if err := t.Flush(); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Err reports the sticky write error.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// ReadJSONL decodes a JSONL trace — the JSONLTracer and flight-recorder
// wire format — into a new forest that keeps every span, for offline
// analysis. Each line replays as the Start, End or Point it encodes, with
// At taken from its ts, so the forest applies the same merge rules to a
// file as to a live stream.
func ReadJSONL(r io.Reader) (*Forest, error) {
	f := newForest(Now())
	if err := replayJSONL(r, f.start, f); err != nil {
		return nil, err
	}
	return f, nil
}

// replayJSONL feeds every line of a JSONL trace to t in file order, with At
// set to base plus the line's ts.
func replayJSONL(r io.Reader, base time.Time, t Tracer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l jsonlLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		// ts is a whole number of nanoseconds after the tracer's start
		// (Duration.Seconds), so rounding recovers it exactly.
		at := base.Add(time.Duration(math.Round(l.TS * 1e9)))
		task := 0
		if l.Task != nil {
			task = *l.Task
		}
		switch l.Ev {
		case "begin":
			t.Begin(Start{ID: SpanID(l.ID), Parent: SpanID(l.Parent), Kind: parseName(l.Kind, KindRun, KindStep),
				Name: l.Name, Task: task, Attempt: l.Attempt, Phase: l.Phase, At: at})
		case "end":
			e := End{ID: SpanID(l.ID), Kind: parseName(l.Kind, KindRun, KindStep), Name: l.Name, Task: task,
				Attempt: l.Attempt, Phase: l.Phase, Outcome: parseName(l.Outcome, OutcomeOK, OutcomeError), Err: l.Err,
				RealSeconds: l.RealS, SimulatedSeconds: l.SimS, Retries: l.Retries,
				Worker: l.Worker, At: at}
			if l.Ctrs != nil {
				e.Counters = *l.Ctrs
			}
			if l.Wasted != nil {
				e.Wasted = *l.Wasted
			}
			t.End(e)
		case "point":
			t.Point(Point{Span: SpanID(l.Span), Kind: parseName(l.Point, PointFault, PointMetric), Name: l.Name,
				Task: task, Attempt: l.Attempt, Phase: l.Phase, Seconds: l.Seconds,
				Value: l.Value, Worker: l.Worker, Sample: l.Sample, At: at})
		default:
			return fmt.Errorf("line %d: unknown event %q", lineNo, l.Ev)
		}
	}
	return sc.Err()
}

// parseName inverts the String method of a span kind, outcome or point
// kind over its named values lo..hi; an unknown name decodes to the zero
// value.
func parseName[T interface {
	~uint8
	String() string
}](name string, lo, hi T) T {
	for v := lo; v <= hi; v++ {
		if v.String() == name {
			return v
		}
	}
	return 0
}
