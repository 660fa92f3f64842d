package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// TestParseTraceOutOfOrderMerge pins the merge semantics of ReadJSONL on
// traces whose lines arrive out of causal order — the shape a flight-recorder
// dump produces (evicted critical ends precede the ring window) and a
// multiprocess merge can produce (a worker step's begin lands after a point
// on it). Regression: begins used to *replace* an end-synthesized span,
// dropping its outcome and re-detaching it, and points preceding their
// span's begin were silently dropped.
func TestParseTraceOutOfOrderMerge(t *testing.T) {
	// Lines deliberately scrambled: the task end (id 3) precedes its begin;
	// the sample point on span 3 precedes span 3's begin; the step span (4)
	// under the task arrives begin-last.
	trace := strings.TrimSpace(`
{"ev":"begin","ts":0,"id":1,"kind":"run","name":"r"}
{"ev":"begin","ts":0.1,"id":2,"parent":1,"kind":"job","name":"j"}
{"ev":"end","ts":0.9,"id":3,"kind":"task","name":"j","task":0,"attempt":1,"phase":"map","outcome":"fault","real_s":0.7,"worker":"w1"}
{"ev":"point","ts":0.5,"span":3,"point":"sample","worker":"w1","sample":{"cpu_s":1.5,"rss_b":1024,"spill_b":10,"queue_b":2}}
{"ev":"point","ts":0.6,"span":3,"point":"sample","worker":"w1","sample":{"cpu_s":1.6,"rss_b":2048,"spill_b":20,"queue_b":4}}
{"ev":"end","ts":0.8,"id":4,"parent":3,"kind":"step","name":"map-exec","phase":"map","outcome":"fault","real_s":0.5,"worker":"w1"}
{"ev":"begin","ts":0.3,"id":4,"parent":3,"kind":"step","name":"map-exec","phase":"map"}
{"ev":"begin","ts":0.2,"id":3,"parent":2,"kind":"task","name":"j","task":0,"attempt":1,"phase":"map"}
{"ev":"end","ts":1.0,"id":2,"kind":"job","name":"j","outcome":"ok","real_s":0.9}
{"ev":"end","ts":1.1,"id":1,"kind":"run","name":"r","outcome":"ok","real_s":1.1}
`) + "\n"

	f, err := ReadJSONL(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if f.events != 10 {
		t.Errorf("parsed %d events, want 10", f.events)
	}
	if roots := f.roots(); len(roots) != 1 {
		names := make([]string, 0, len(roots))
		for _, r := range roots {
			names = append(names, r.kind.String()+":"+r.name)
		}
		t.Fatalf("got %d roots (%v), want 1 — out-of-order spans polluted the detached bucket", len(roots), names)
	}

	task := f.spans[3]
	if task.parent != 2 || !task.closed || task.outcome != OutcomeFault || task.worker != "w1" {
		t.Errorf("task span lost data across out-of-order merge: %+v", task)
	}
	if task.begin != 0.2 {
		t.Errorf("task begin = %g, want the begin line's 0.2", task.begin)
	}
	if len(task.points) != 2 {
		t.Fatalf("task has %d points, want 2 — points before their span's begin were dropped", len(task.points))
	}
	step := f.spans[4]
	if step.parent != 3 || step.kind != KindStep || !step.closed || step.outcome != OutcomeFault {
		t.Errorf("step span lost data across out-of-order merge: %+v", step)
	}

	// The analysis over this trace must see the telemetry: worker step
	// seconds, samples with peaks, and a computed utilization.
	a := f.Analyze(5)
	if len(a.Runs) != 1 {
		t.Fatalf("got %d runs", len(a.Runs))
	}
	run := a.Runs[0]
	if len(run.Workers) != 1 {
		t.Fatalf("got %d worker rows, want 1", len(run.Workers))
	}
	w := run.Workers[0]
	if w.Worker != "w1" || w.Attempts != 1 || w.Faults != 1 {
		t.Errorf("worker row = %+v", w)
	}
	if w.Samples != 2 || w.PeakRSSBytes != 2048 || w.PeakQueueBytes != 4 || w.SpillBytes != 20 {
		t.Errorf("sample aggregation wrong: %+v", w)
	}
	if w.CPUSeconds != 1.6 {
		t.Errorf("worker CPU = %g, want last sample's 1.6", w.CPUSeconds)
	}
	// ΔCPU/Δwall = (1.6-1.5)/(0.6-0.5) = 1.0
	if w.Utilization < 0.999 || w.Utilization > 1.001 {
		t.Errorf("utilization = %g, want 1.0", w.Utilization)
	}
	if got := w.StepSeconds["map-exec"]; got != 0.5 {
		t.Errorf("step seconds = %g, want 0.5", got)
	}
	// The step span must not count as a task attempt.
	if run.TaskAttempts != 1 {
		t.Errorf("run counts %d task attempts, want 1 (steps must not count)", run.TaskAttempts)
	}
}

// TestAnalyzeCriticalPathChain pins the critical path on a hand-built
// forest: three sequential phases, the last running one job of parallel
// map tasks and then one reduce. Sequential siblings chain (all three
// phases, the last map then the reduce); of the overlapping map tasks only
// the one that finished last joins; each self time is the span's duration
// minus what its chain covers.
func TestAnalyzeCriticalPathChain(t *testing.T) {
	base := Now()
	f := newForest(base)
	at := func(s float64) time.Time { return base.Add(time.Duration(s * float64(time.Second))) }
	spanAt := func(id, parent SpanID, kind SpanKind, name, phase string, task int, begin, end float64) {
		f.Begin(Start{ID: id, Parent: parent, Kind: kind, Name: name, Phase: phase, Task: task, At: at(begin)})
		f.End(End{ID: id, Kind: kind, Name: name, Phase: phase, Task: task, At: at(end)})
	}
	spanAt(1, 0, KindRun, "run", "", 0, 0, 10)
	spanAt(2, 1, KindPhase, "a", "", 0, 0, 3)
	spanAt(3, 1, KindPhase, "b", "", 0, 3.5, 6)
	spanAt(4, 1, KindPhase, "c", "", 0, 6, 10)
	spanAt(5, 4, KindJob, "j", "", 0, 6.2, 9.8)
	spanAt(6, 5, KindTask, "j", "map", 0, 6.3, 7.5)
	spanAt(7, 5, KindTask, "j", "map", 1, 6.3, 8.0)
	spanAt(8, 5, KindTask, "j", "map", 2, 6.4, 7.9)
	spanAt(9, 5, KindTask, "j", "reduce", 0, 8.1, 9.7)

	cp := f.Analyze(5).Runs[0].CriticalPath
	want := []struct {
		name, task string
		depth      int
		self       float64
	}{
		{"run", "", 0, 10 - 3 - 2.5 - 4},
		{"a", "", 1, 3},
		{"b", "", 1, 2.5},
		{"c", "", 1, 4 - 3.6},
		{"j", "", 2, 3.6 - 1.7 - 1.6},
		{"j", "1.0", 3, 1.7},
		{"j", "0.0", 3, 1.6},
	}
	if len(cp) != len(want) {
		t.Fatalf("critical path has %d steps, want %d: %+v", len(cp), len(want), cp)
	}
	for i, w := range want {
		s := cp[i]
		if s.Name != w.name || s.Task != w.task || s.Depth != w.depth || math.Abs(s.SelfSeconds-w.self) > 1e-9 {
			t.Errorf("step %d = %s %q task %q depth %d self %g, want %q task %q depth %d self %g",
				i, s.Kind, s.Name, s.Task, s.Depth, s.SelfSeconds, w.name, w.task, w.depth, w.self)
		}
	}
	if cp[5].Phase != "map" || cp[6].Phase != "reduce" {
		t.Errorf("job chain = %s then %s, want the last map then the reduce", cp[5].Phase, cp[6].Phase)
	}
}

// TestReportTextShowsMicrosecondTasks checks that task durations far below
// a millisecond keep their significant digits in the text report: a 30 µs
// attempt must not read as zero in the job, critical-path, skew, retry
// waste, workers, classified-straggler or slowest-attempt tables.
func TestReportTextShowsMicrosecondTasks(t *testing.T) {
	const s = 30e-6
	a := &Analysis{Runs: []RunAnalysis{{
		Kind: "run", Name: "r",
		Jobs: []JobRow{{Name: "j", Runs: 1, TaskP50S: s, TaskP90S: s, TaskP99S: s}},
		CriticalPath: []CPStep{{Kind: "task", Name: "j", Phase: "map", Task: "0.0", Depth: 1,
			StartS: s, EndS: 2 * s, DurationS: s, SelfSeconds: s}},
		Skew:       []SkewRow{{Job: "j", Phase: "map", Tasks: 1, MedianS: s, P90S: s, MaxS: s}},
		RetryWaste: []WasteRow{{Job: "j", FaultAttempts: 1, WallSeconds: s}},
		Workers:    []WorkerRow{{Worker: "w", Attempts: 1, Faults: 1, WallSeconds: s, FaultWallSeconds: s}},
		Classified: []ClassifyRow{{Job: "j", Phase: "map", Task: "0.0", Seconds: s, MedianS: s, Class: "unknown"}},
		Slowest:    []AttemptRow{{Job: "j", Phase: "map", Task: "0", Seconds: s, Outcome: "ok"}},
	}}}
	var buf bytes.Buffer
	if err := WriteText(&buf, a, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if want := "0.0000300/0.0000300/0.0000300"; !strings.Contains(out, want) {
		t.Errorf("job row lacks %q:\n%s", want, out)
	}
	if want := "j task 0.0 [map] 0.0000300 0.0000300 0.0000300"; !strings.Contains(strings.Join(strings.Fields(out), " "), want) {
		t.Errorf("critical path lacks %q:\n%s", want, out)
	}
	if n := strings.Count(out, "0.0000300"); n != 3+3+3+1+2+2+1 {
		t.Errorf("30 µs rendered %d times, want 15:\n%s", n, out)
	}
	for _, c := range []struct {
		s    float64
		want string
	}{{0, "0.000"}, {1.5, "1.500"}, {0.01234, "0.0123"}, {123.456, "123.456"}} {
		if got := taskSeconds(c.s); got != c.want {
			t.Errorf("taskSeconds(%g) = %q, want %q", c.s, got, c.want)
		}
	}
}
