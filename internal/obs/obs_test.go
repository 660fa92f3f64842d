package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersStringCoversEveryField(t *testing.T) {
	c := Counters{
		MapInputRecords:  1,
		MapOutputRecords: 2,
		ReduceInputKeys:  3,
		ReduceInputVals:  4,
		OutputRecords:    5,
		ShuffledBytes:    6,
		TaskRetries:      7,
	}
	got := c.String()
	want := "mapIn=1 mapOut=2 redKeys=3 redVals=4 out=5 shuffledB=6 retries=7"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestCountersAddSub(t *testing.T) {
	a := Counters{MapInputRecords: 10, ShuffledBytes: 100, TaskRetries: 2}
	b := Counters{MapInputRecords: 3, ShuffledBytes: 40, TaskRetries: 1}
	sum := a
	sum.Add(b)
	if sum.MapInputRecords != 13 || sum.ShuffledBytes != 140 || sum.TaskRetries != 3 {
		t.Fatalf("Add: got %+v", sum)
	}
	sum.Sub(b)
	if sum != a {
		t.Fatalf("Sub did not invert Add: got %+v, want %+v", sum, a)
	}
}

func TestMultiFiltersNilAndFansOut(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	m := NewMemTracer()
	if got := Multi(nil, m, nil); got != Tracer(m) {
		t.Fatalf("single non-nil sink should be returned unwrapped, got %T", got)
	}
	a, b := NewMemTracer(), NewMemTracer()
	fan := Multi(a, nil, b)
	id := NewSpanID()
	fan.Begin(Start{ID: id, Kind: KindRun, Name: "r"})
	fan.Point(Point{Span: id, Kind: PointRetry})
	fan.End(End{ID: id, Kind: KindRun, Name: "r"})
	for i, m := range []*MemTracer{a, b} {
		if len(m.Starts()) != 1 || len(m.Ends()) != 1 || len(m.Points()) != 1 {
			t.Fatalf("sink %d missed events: %d/%d/%d", i, len(m.Starts()), len(m.Ends()), len(m.Points()))
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("sink %d: %v", i, err)
		}
	}
}

func TestMemTracerValidate(t *testing.T) {
	// A well-formed run → phase → job → task stream.
	m := NewMemTracer()
	run, phase, job, task := NewSpanID(), NewSpanID(), NewSpanID(), NewSpanID()
	m.Begin(Start{ID: run, Kind: KindRun, Name: "r"})
	m.Begin(Start{ID: phase, Parent: run, Kind: KindPhase, Name: "p"})
	m.Begin(Start{ID: job, Parent: phase, Kind: KindJob, Name: "j"})
	m.Begin(Start{ID: task, Parent: job, Kind: KindTask, Name: "j", Task: 0, Phase: "map"})
	m.Point(Point{Span: task, Kind: PointStraggler, Seconds: 1})
	m.End(End{ID: task, Kind: KindTask, Name: "j", Task: 0, Phase: "map"})
	m.End(End{ID: job, Kind: KindJob, Name: "j"})
	m.End(End{ID: phase, Kind: KindPhase, Name: "p"})
	m.End(End{ID: run, Kind: KindRun, Name: "r"})
	if err := m.Validate(); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}

	bad := []struct {
		name  string
		build func(m *MemTracer)
	}{
		{"zero id", func(m *MemTracer) {
			m.Begin(Start{Kind: KindRun, Name: "r"})
		}},
		{"duplicate id", func(m *MemTracer) {
			id := NewSpanID()
			m.Begin(Start{ID: id, Kind: KindRun})
			m.Begin(Start{ID: id, Kind: KindRun})
		}},
		{"unopened parent", func(m *MemTracer) {
			m.Begin(Start{ID: NewSpanID(), Parent: SpanID(999999), Kind: KindJob})
		}},
		{"inverted nesting", func(m *MemTracer) {
			job, run := NewSpanID(), NewSpanID()
			m.Begin(Start{ID: job, Kind: KindJob, Name: "j"})
			m.Begin(Start{ID: run, Parent: job, Kind: KindRun, Name: "r"})
		}},
		{"never closed", func(m *MemTracer) {
			m.Begin(Start{ID: NewSpanID(), Kind: KindRun, Name: "r"})
		}},
		{"closed twice", func(m *MemTracer) {
			id := NewSpanID()
			m.Begin(Start{ID: id, Kind: KindRun, Name: "r"})
			m.End(End{ID: id, Kind: KindRun, Name: "r"})
			m.End(End{ID: id, Kind: KindRun, Name: "r"})
		}},
		{"identity mismatch", func(m *MemTracer) {
			id := NewSpanID()
			m.Begin(Start{ID: id, Kind: KindRun, Name: "r"})
			m.End(End{ID: id, Kind: KindJob, Name: "r"})
		}},
		{"point on unopened span", func(m *MemTracer) {
			m.Point(Point{Span: SpanID(999999), Kind: PointFault})
		}},
	}
	for _, tc := range bad {
		m := NewMemTracer()
		tc.build(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid stream", tc.name)
		}
	}
}

func TestMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h", []float64{1, 10})
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(0.5)
				h.Observe(float64(i % 20))
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counters["c"]; got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := snap.Gauges["g"]; got != workers*per*0.5 {
		t.Errorf("gauge = %g, want %g", got, workers*per*0.5)
	}
	h := snap.Histograms["h"]
	if h.Count != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*per)
	}
	var inBuckets int64
	for _, c := range h.Counts {
		inBuckets += c
	}
	if inBuckets != h.Count {
		t.Errorf("bucket counts sum to %d, want %d", inBuckets, h.Count)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	want := []int64{2, 2, 1, 1} // ≤1: {0.5, 1}; ≤10: {5, 10}; ≤100: {50}; overflow: {1000}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Sum != 0.5+1+5+10+50+1000 {
		t.Errorf("sum = %g", s.Sum)
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_count").Add(2)
	r.Counter("a_count").Add(1)
	r.Gauge("z_gauge").Set(1.5)
	r.Histogram("h", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a_count 1") || !strings.HasPrefix(lines[1], "b_count 2") {
		t.Errorf("counters not sorted:\n%s", out)
	}
}

// TestJSONLRoundTrip checks that every emitted line parses as JSON and
// that identity and payload fields survive the trip.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	job, task := NewSpanID(), NewSpanID()
	tr.Begin(Start{ID: job, Kind: KindJob, Name: "j"})
	tr.Begin(Start{ID: task, Parent: job, Kind: KindTask, Name: "j", Task: 0, Attempt: 1, Phase: "map"})
	tr.Point(Point{Span: task, Kind: PointFault, Name: "j", Task: 0, Attempt: 1, Phase: "map"})
	tr.End(End{ID: task, Kind: KindTask, Name: "j", Task: 0, Attempt: 1, Phase: "map",
		Outcome: OutcomeFault, Err: "injected", RealSeconds: 0.25,
		Wasted: Counters{MapInputRecords: 7}})
	tr.End(End{ID: job, Kind: KindJob, Name: "j", Outcome: OutcomeOK,
		Counters: Counters{MapInputRecords: 7, OutputRecords: 3}, Retries: 1})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	raw := append([]byte(nil), buf.Bytes()...)
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("unparseable line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	// Task span begin: task 0 must be present despite being zero-valued.
	if v, ok := lines[1]["task"]; !ok || v.(float64) != 0 {
		t.Errorf("task begin line lost task=0: %v", lines[1])
	}
	// Job begin: no task field at all.
	if _, ok := lines[0]["task"]; ok {
		t.Errorf("job begin line has a task field: %v", lines[0])
	}
	// Point line carries the fault's phase.
	if lines[2]["point"] != "fault" || lines[2]["phase"] != "map" {
		t.Errorf("point line: %v", lines[2])
	}
	// Fault end has wasted counters but no committed counters.
	if _, ok := lines[3]["counters"]; ok {
		t.Errorf("fault end should omit zero counters: %v", lines[3])
	}
	if w, ok := lines[3]["wasted"].(map[string]any); !ok || w["mapIn"].(float64) != 7 {
		t.Errorf("fault end lost wasted counters: %v", lines[3])
	}
	if lines[3]["outcome"] != "fault" || lines[3]["err"] != "injected" {
		t.Errorf("fault end outcome/err: %v", lines[3])
	}
	// Job end keeps counters and retries.
	if c, ok := lines[4]["counters"].(map[string]any); !ok || c["out"].(float64) != 3 {
		t.Errorf("job end counters: %v", lines[4])
	}
	if lines[4]["retries"].(float64) != 1 {
		t.Errorf("job end retries: %v", lines[4])
	}
	// Timestamps are monotonically non-decreasing.
	prev := -1.0
	for i, m := range lines {
		ts := m["ts"].(float64)
		if ts < prev {
			t.Errorf("line %d: ts %g < previous %g", i, ts, prev)
		}
		prev = ts
	}

	// Decoding a trace and encoding it again reproduces it byte for byte —
	// jsonlLine spells the wire format for both directions. A second trace
	// covers the fields the first leaves empty: worker attribution, step
	// spans, samples, straggler and metric payloads, simulated seconds.
	var more bytes.Buffer
	tr2 := NewJSONLTracer(&more)
	step := NewSpanID()
	tr2.Begin(Start{ID: step, Parent: task, Kind: KindStep, Name: "map-exec", Phase: "map",
		At: tr2.start.Add(-3 * time.Millisecond)})
	tr2.Point(Point{Span: step, Kind: PointSample, Worker: "w1",
		Sample: &ResourceSample{CPUSeconds: 1.5, RSSBytes: 4096, SpillBytes: 10, QueueBytes: 2}})
	tr2.Point(Point{Span: task, Kind: PointStraggler, Name: "j", Task: 0, Phase: "map", Seconds: 7})
	tr2.Point(Point{Span: job, Kind: PointMetric, Name: "em_log_likelihood", Task: 3, Value: -40.5})
	tr2.End(End{ID: step, Kind: KindStep, Name: "map-exec", Phase: "map", Outcome: OutcomeCancelled,
		RealSeconds: 0.001, Worker: "w1"})
	tr2.End(End{ID: job, Kind: KindJob, Name: "j", SimulatedSeconds: 12.5, Retries: 2,
		Counters: Counters{ShuffledBytes: 99}})
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	for i, trace := range []struct {
		raw   []byte
		start time.Time
	}{{raw, tr.start}, {more.Bytes(), tr2.start}} {
		var again bytes.Buffer
		enc := &JSONLTracer{w: bufio.NewWriter(&again), start: trace.start}
		if err := replayJSONL(bytes.NewReader(trace.raw), trace.start, enc); err != nil {
			t.Fatal(err)
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), trace.raw) {
			t.Errorf("trace %d: decode → encode changed the bytes:\n--- decoded and re-encoded ---\n%s--- original ---\n%s",
				i, again.Bytes(), trace.raw)
		}
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errShort
	}
	f.n--
	return len(p), nil
}

var errShort = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "short write" }

func TestJSONLStickyError(t *testing.T) {
	tr := NewJSONLTracer(&failWriter{n: 0})
	for i := 0; i < 2000; i++ { // enough to overflow the 4k bufio buffer
		tr.Begin(Start{ID: NewSpanID(), Kind: KindJob, Name: "jjjjjjjjjjjjjjjjjjjjjjjj"})
	}
	if tr.Close() == nil {
		t.Fatal("Close should surface the write error")
	}
}
