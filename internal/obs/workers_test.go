package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// feedWorkerStats drives a small two-worker history through a forest: w2
// runs clean, w1 faults once, runs a step, straggles and reports samples.
// Every point rides on one of its worker's task spans, as the engine and
// the multiprocess backend emit them.
func feedWorkerStats() *Forest {
	ws := NewForest()
	// Driver-side events without worker attribution must be ignored.
	ws.End(End{ID: 1, Kind: KindTask, Outcome: OutcomeOK, RealSeconds: 9})
	ws.Point(Point{Span: 1, Kind: PointSample, Sample: &ResourceSample{CPUSeconds: 9}})

	ws.End(End{ID: 2, Kind: KindTask, Worker: "w1", Outcome: OutcomeFault,
		RealSeconds: 0.5, Wasted: Counters{MapInputRecords: 40}})
	ws.End(End{ID: 3, Kind: KindTask, Worker: "w1", Outcome: OutcomeOK, RealSeconds: 1.5})
	ws.End(End{ID: 4, Kind: KindStep, Name: "map-exec", Worker: "w1", Outcome: OutcomeOK, RealSeconds: 1.25})
	ws.End(End{ID: 5, Kind: KindStep, Name: "map-exec", Worker: "w1", Outcome: OutcomeOK, RealSeconds: 0.25})
	ws.End(End{ID: 6, Kind: KindStep, Name: "spill-write", Worker: "w1", Outcome: OutcomeOK, RealSeconds: 0.5})
	ws.Point(Point{Span: 3, Kind: PointStraggler, Worker: "w1", Seconds: 3})
	ws.Point(Point{Span: 2, Kind: PointSample, Worker: "w1",
		Sample: &ResourceSample{CPUSeconds: 1, RSSBytes: 4096, SpillBytes: 100, QueueBytes: 64}})
	ws.Point(Point{Span: 3, Kind: PointSample, Worker: "w1",
		Sample: &ResourceSample{CPUSeconds: 2, RSSBytes: 2048, SpillBytes: 200, QueueBytes: 16}})

	ws.End(End{ID: 7, Kind: KindTask, Worker: "w2", Outcome: OutcomeOK, RealSeconds: 2})
	ws.Point(Point{Span: 7, Kind: PointSample, Worker: "w2", Sample: &ResourceSample{CPUSeconds: 0.5, RSSBytes: 1024}})
	return ws
}

// goldenWorkerMetrics is the exact exposition-format rendering of
// feedWorkerStats — the /metrics contract for the per-worker families.
const goldenWorkerMetrics = `# TYPE p3c_worker_attempts_total counter
p3c_worker_attempts_total{worker="w1"} 2
p3c_worker_attempts_total{worker="w2"} 1
# TYPE p3c_worker_busy_seconds_total counter
p3c_worker_busy_seconds_total{worker="w1"} 2
p3c_worker_busy_seconds_total{worker="w2"} 2
# TYPE p3c_worker_cancelled_total counter
p3c_worker_cancelled_total{worker="w1"} 0
p3c_worker_cancelled_total{worker="w2"} 0
# TYPE p3c_worker_cpu_seconds_total counter
p3c_worker_cpu_seconds_total{worker="w1"} 2
p3c_worker_cpu_seconds_total{worker="w2"} 0.5
# TYPE p3c_worker_faults_total counter
p3c_worker_faults_total{worker="w1"} 1
p3c_worker_faults_total{worker="w2"} 0
# TYPE p3c_worker_queue_bytes gauge
p3c_worker_queue_bytes{worker="w1"} 16
p3c_worker_queue_bytes{worker="w2"} 0
# TYPE p3c_worker_rss_bytes gauge
p3c_worker_rss_bytes{worker="w1"} 2048
p3c_worker_rss_bytes{worker="w2"} 1024
# TYPE p3c_worker_samples_total counter
p3c_worker_samples_total{worker="w1"} 2
p3c_worker_samples_total{worker="w2"} 1
# TYPE p3c_worker_spill_bytes gauge
p3c_worker_spill_bytes{worker="w1"} 200
p3c_worker_spill_bytes{worker="w2"} 0
# TYPE p3c_worker_step_seconds_total counter
p3c_worker_step_seconds_total{worker="w1",step="map-exec"} 1.5
p3c_worker_step_seconds_total{worker="w1",step="spill-write"} 0.5
# TYPE p3c_worker_straggler_seconds_total counter
p3c_worker_straggler_seconds_total{worker="w1"} 3
p3c_worker_straggler_seconds_total{worker="w2"} 0
`

// TestWorkerStatsPrometheusGolden pins the exact per-worker exposition text
// and validates it with the same format checker the registry golden uses.
func TestWorkerStatsPrometheusGolden(t *testing.T) {
	ws := feedWorkerStats()
	var buf bytes.Buffer
	if err := ws.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenWorkerMetrics {
		t.Errorf("worker metrics drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, goldenWorkerMetrics)
	}
	checkPromText(t, buf.String())

	// Rendering must be deterministic.
	var again bytes.Buffer
	if err := ws.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renderings of the same state differ")
	}

	// Empty state renders nothing — no dangling TYPE lines on /metrics of
	// runs without worker telemetry.
	var empty bytes.Buffer
	if err := NewForest().WritePrometheus(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Errorf("a forest without workers rendered %q, want nothing", empty.String())
	}
}

// TestWorkersEndpoint pins the /workers JSON payload and its integration
// into the ops mux, including the appended worker families on /metrics.
func TestWorkersEndpoint(t *testing.T) {
	ws := feedWorkerStats()
	mux := NewOpsMux(NewRegistry(), ws, nil)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/workers", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /workers = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/workers content-type = %q", ct)
	}
	var snaps []WorkerSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snaps); err != nil {
		t.Fatalf("/workers not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(snaps) != 2 || snaps[0].Worker != "w1" || snaps[1].Worker != "w2" {
		t.Fatalf("/workers = %+v, want sorted w1, w2", snaps)
	}
	w1 := snaps[0]
	if w1.Attempts != 2 || w1.OK != 1 || w1.Faults != 1 || w1.BusySeconds != 2 {
		t.Errorf("w1 attempt accounting = %+v", w1)
	}
	if w1.Samples != 2 || w1.CPUSeconds != 2 || w1.RSSBytes != 2048 || w1.PeakRSSBytes != 4096 {
		t.Errorf("w1 sample accounting = %+v", w1)
	}
	if w1.QueueBytes != 16 || w1.PeakQueueBytes != 64 || w1.SpillBytes != 200 {
		t.Errorf("w1 backpressure accounting = %+v", w1)
	}
	if w1.StepSeconds["map-exec"] != 1.5 || w1.StepSeconds["spill-write"] != 0.5 {
		t.Errorf("w1 step seconds = %+v", w1.StepSeconds)
	}
	if w1.Wasted.MapInputRecords != 40 {
		t.Errorf("w1 wasted = %+v", w1.Wasted)
	}
	if w1.StragglerSeconds != 3 {
		t.Errorf("w1 straggler seconds = %g", w1.StragglerSeconds)
	}

	// /metrics on the same mux must append the worker families after the
	// registry's and still be format-valid as a whole.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), goldenWorkerMetrics) {
		t.Errorf("/metrics does not embed the worker families:\n%s", rec.Body.String())
	}
	checkPromText(t, rec.Body.String())
}

// TestWorkerTelemetryRoundTrip drives the worker-side tracer through a
// task's lifecycle and checks the drained event stream: balanced
// begins/ends, abort closing open steps deterministically, and sampler
// events carrying payloads.
func TestWorkerTelemetryRoundTrip(t *testing.T) {
	var nilTel *WorkerTelemetry
	nilTel.StartStep("map-exec", "map").Done() // nil tracer: all no-ops
	nilTel.AbortOpen(OutcomeFault, "x")
	nilTel.RecordSample(ResourceSample{})
	if nilTel.Drain() != nil || nilTel.Pending() != 0 {
		t.Fatal("nil tracer should buffer nothing")
	}

	w := NewWorkerTelemetry()
	clock := w.Clock()
	if clock.Ev != TelClock || clock.S < 0 {
		t.Fatalf("clock event = %+v", clock)
	}

	st := w.StartStep("map-exec", "map")
	sp := w.StartStep("spill-write", "map")
	sp.Done()
	st.Done()
	w.RecordSample(ResourceSample{CPUSeconds: 1, RSSBytes: 2})
	// Two dangling steps killed by an abort (the injected-fault path).
	w.StartStep("segment-merge", "reduce")
	w.StartStep("frame-encode", "reduce")
	w.AbortOpen(OutcomeFault, "injected failure")

	evs := w.Drain()
	if w.Pending() != 0 || w.Drain() != nil {
		t.Error("drain did not empty the buffer")
	}
	open := make(map[int64]string)
	aborted := 0
	for _, ev := range evs {
		switch ev.Ev {
		case TelBegin:
			open[ev.ID] = ev.Name
		case TelEnd:
			if _, ok := open[ev.ID]; !ok {
				t.Errorf("end without begin: %+v", ev)
			}
			delete(open, ev.ID)
			if ev.RealS < 0 {
				t.Errorf("negative step duration: %+v", ev)
			}
			if ev.Outcome == uint8(OutcomeFault) {
				aborted++
				if ev.Err != "injected failure" {
					t.Errorf("aborted step err = %q", ev.Err)
				}
			}
		case TelPoint:
			if PointKind(ev.PKind) == PointSample && ev.Sample == nil {
				t.Errorf("sample point without payload: %+v", ev)
			}
		}
	}
	if len(open) != 0 {
		t.Errorf("dangling begins after abort: %v", open)
	}
	if aborted != 2 {
		t.Errorf("abort closed %d steps, want 2", aborted)
	}

	// Sampler: collects real /proc numbers and stops cleanly.
	dir := t.TempDir()
	w.StartSampler(time.Millisecond, dir, func() int64 { return 7 })
	time.Sleep(5 * time.Millisecond)
	w.StopSampler()
	n := 0
	for _, ev := range w.Drain() {
		if ev.Ev == TelPoint && PointKind(ev.PKind) == PointSample {
			n++
			// CPU can still read 0 this early in the process (userHZ
			// granularity is 10ms); RSS must always be readable.
			if ev.Sample.CPUSeconds < 0 || ev.Sample.RSSBytes <= 0 {
				t.Errorf("sampler read implausible /proc values: %+v", ev.Sample)
			}
			if ev.Sample.QueueBytes != 7 {
				t.Errorf("sampler queue depth = %d, want 7", ev.Sample.QueueBytes)
			}
		}
	}
	if n == 0 {
		t.Error("sampler produced no samples")
	}
}

// TestStepSpanValidation pins the span-kind ladder with KindStep at the
// bottom: steps under tasks validate, steps under jobs do not.
func TestStepSpanValidation(t *testing.T) {
	m := NewMemTracer()
	run, job, task, step := NewSpanID(), NewSpanID(), NewSpanID(), NewSpanID()
	m.Begin(Start{ID: run, Kind: KindRun, Name: "r"})
	m.Begin(Start{ID: job, Parent: run, Kind: KindJob, Name: "j"})
	m.Begin(Start{ID: task, Parent: job, Kind: KindTask, Name: "j", Phase: "map"})
	m.Begin(Start{ID: step, Parent: task, Kind: KindStep, Name: "map-exec", Phase: "map"})
	m.End(End{ID: step, Kind: KindStep, Name: "map-exec", Outcome: OutcomeOK, Worker: "w1"})
	m.End(End{ID: task, Kind: KindTask, Name: "j", Outcome: OutcomeOK})
	m.End(End{ID: job, Kind: KindJob, Name: "j", Outcome: OutcomeOK})
	m.End(End{ID: run, Kind: KindRun, Name: "r", Outcome: OutcomeOK})
	if err := m.Validate(); err != nil {
		t.Fatalf("step-under-task forest rejected: %v", err)
	}

	bad := NewMemTracer()
	run2, job2, step2 := NewSpanID(), NewSpanID(), NewSpanID()
	bad.Begin(Start{ID: run2, Kind: KindRun, Name: "r"})
	bad.Begin(Start{ID: job2, Parent: run2, Kind: KindJob, Name: "j"})
	bad.Begin(Start{ID: step2, Parent: job2, Kind: KindStep, Name: "map-exec"})
	bad.End(End{ID: step2, Kind: KindStep, Name: "map-exec", Outcome: OutcomeOK})
	bad.End(End{ID: job2, Kind: KindJob, Name: "j", Outcome: OutcomeOK})
	bad.End(End{ID: run2, Kind: KindRun, Name: "r", Outcome: OutcomeOK})
	if err := bad.Validate(); err == nil {
		t.Fatal("step directly under a job must fail validation")
	}
}

// TestAtStampedTimestamps pins the At-override plumbing: sinks stamp a
// span's TS from Start/End/Point.At when set — how driver-aligned worker
// events land at their true time instead of frame-arrival time.
func TestAtStampedTimestamps(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	base := Now()
	id := NewSpanID()
	tr.Begin(Start{ID: id, Kind: KindStep, Name: "map-exec", At: base.Add(-50 * time.Millisecond)})
	tr.End(End{ID: id, Kind: KindStep, Name: "map-exec", Outcome: OutcomeOK,
		Worker: "w1", At: base.Add(-10 * time.Millisecond)})
	tr.Point(Point{Span: id, Kind: PointSample, Worker: "w1",
		Sample: &ResourceSample{CPUSeconds: 1}, At: base.Add(-30 * time.Millisecond)})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var ts []float64
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ev struct {
			Ev     string          `json:"ev"`
			TS     float64         `json:"ts"`
			Sample *ResourceSample `json:"sample"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		ts = append(ts, ev.TS)
		if ev.Ev == "point" && (ev.Sample == nil || ev.Sample.CPUSeconds != 1) {
			t.Errorf("point line lost its sample payload: %s", line)
		}
	}
	if len(ts) != 3 {
		t.Fatalf("got %d lines, want 3", len(ts))
	}
	// begin < point < end, honoring the At overrides (all before "now", so
	// without At they would all collapse to ~the same write instant).
	if !(ts[0] < ts[2] && ts[2] < ts[1]) {
		t.Errorf("At overrides not honored: begin=%g end=%g point=%g", ts[0], ts[1], ts[2])
	}
	d := ts[1] - ts[0]
	if d < 0.035 || d > 0.06 {
		t.Errorf("end-begin spread = %g s, want ~0.04", d)
	}
}
