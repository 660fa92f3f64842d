package mr

import (
	"reflect"
	"testing"
	"time"

	"p3cmr/internal/obs"
)

// TestMultiprocTelemetry pins the worker telemetry plane end to end: a
// multiprocess chaos run with a tracer attached must yield ONE coherent span
// forest in which worker-side step spans (map-exec, spill-write,
// segment-merge, frame-encode) hang off their driver-side task-attempt
// spans, resource samples arrive as worker-attributed points, and the
// per-worker fault accounting reconciles exactly with the driver's retry
// counters.
func TestMultiprocTelemetry(t *testing.T) {
	mem := obs.NewMemTracer()
	engine := NewEngine(Config{
		Parallelism: 4, Backend: "multiprocess",
		SpillDir: t.TempDir(), SpillThresholdBytes: 1,
		Faults:      RateFaultPlan{MapRate: 0.3, ReduceRate: 0.3, Seed: 11},
		MaxAttempts: 12,
		Tracer:      mem, TelemetrySample: 2 * time.Millisecond,
	})
	out, err := engine.Run(confJob("conf-wordcount", 800, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Counters.TaskRetries == 0 {
		t.Fatal("fault plan injected no retries — telemetry chaos path unexercised")
	}
	if err := mem.Validate(); err != nil {
		t.Fatalf("merged span forest invalid: %v", err)
	}
	stats, ok := engine.LastProcStats()
	if !ok || stats.TelemetryEvents == 0 {
		t.Fatalf("no telemetry events folded into the driver (stats=%+v ok=%v)", stats, ok)
	}

	// Step spans: present, worker-attributed, correctly named, and parented
	// under task-attempt spans.
	knownSteps := map[string]bool{
		"map-exec": true, "spill-write": true, "segment-merge": true, "frame-encode": true,
	}
	stepNames := make(map[string]bool)
	steps := 0
	for _, e := range mem.Ends() {
		if e.Kind != obs.KindStep {
			continue
		}
		steps++
		stepNames[e.Name] = true
		if !knownSteps[e.Name] {
			t.Errorf("unknown step name %q", e.Name)
		}
		if e.Worker == "" {
			t.Errorf("step %q end lacks worker attribution", e.Name)
		}
		if e.RealSeconds < 0 {
			t.Errorf("step %q has negative duration %g", e.Name, e.RealSeconds)
		}
		start, ok := mem.StartOf(e.ID)
		if !ok {
			t.Fatalf("step end %d has no start", e.ID)
		}
		if parent, ok := mem.StartOf(start.Parent); !ok || parent.Kind != obs.KindTask {
			t.Errorf("step %q parent is not a task span (ok=%v kind=%v)", e.Name, ok, parent.Kind)
		}
		if start.At.IsZero() || e.At.IsZero() {
			t.Errorf("step %q missing aligned timestamps (begin zero=%v end zero=%v)",
				e.Name, start.At.IsZero(), e.At.IsZero())
		}
	}
	if steps == 0 {
		t.Fatal("no worker step spans in the merged forest")
	}
	// SpillThresholdBytes=1 forces mid-task spills, so every step family of
	// a map+reduce job must appear.
	for name := range knownSteps {
		if !stepNames[name] {
			t.Errorf("step family %q never observed", name)
		}
	}

	// Resource samples: worker-attributed points carrying a sample payload,
	// with per-worker monotonically non-decreasing CPU.
	lastCPU := make(map[string]float64)
	sampled := 0
	for _, p := range mem.Points() {
		if p.Kind != obs.PointSample {
			continue
		}
		sampled++
		if p.Worker == "" || p.Sample == nil {
			t.Fatalf("sample point lacks worker or payload: %+v", p)
		}
		if p.At.IsZero() {
			t.Error("sample point missing aligned timestamp")
		}
		if p.Sample.CPUSeconds < lastCPU[p.Worker] {
			t.Errorf("worker %s CPU went backwards: %g < %g", p.Worker, p.Sample.CPUSeconds, lastCPU[p.Worker])
		}
		lastCPU[p.Worker] = p.Sample.CPUSeconds
	}
	if sampled == 0 {
		t.Fatal("no resource samples in the merged forest")
	}

	// Per-worker reconciliation: each injected fault kills one attempt and
	// triggers exactly one retry (the job succeeded within MaxAttempts), so
	// worker-attributed fault ends must sum to the driver's TaskRetries and
	// their diverted counters to the driver's Wasted.
	faultsByWorker := make(map[string]int64)
	var wastedRecords int64
	for _, e := range mem.Ends() {
		if e.Kind == obs.KindTask && e.Outcome == obs.OutcomeFault {
			if e.Worker == "" {
				t.Errorf("faulted task attempt lacks worker attribution: %+v", e)
			}
			faultsByWorker[e.Worker]++
			wastedRecords += e.Wasted.MapInputRecords + e.Wasted.ReduceInputVals
		}
	}
	var totalFaults int64
	for _, n := range faultsByWorker {
		totalFaults += n
	}
	if totalFaults != out.Counters.TaskRetries {
		t.Errorf("worker-attributed faults = %d, driver TaskRetries = %d", totalFaults, out.Counters.TaskRetries)
	}
	if want := out.Wasted.MapInputRecords + out.Wasted.ReduceInputVals; wastedRecords != want {
		t.Errorf("worker-attributed wasted records = %d, driver Wasted = %d", wastedRecords, want)
	}
}

// TestMultiprocTelemetryOff pins the strictly-additive contract: without a
// tracer the driver exports no telemetry env, folds zero telemetry events,
// and produces bit-identical output to a telemetry-on run of the same job.
func TestMultiprocTelemetryOff(t *testing.T) {
	run := func(tr obs.Tracer) (*Output, ProcStats) {
		engine := NewEngine(Config{
			Parallelism: 4, Backend: "multiprocess",
			SpillDir: t.TempDir(), SpillThresholdBytes: 1,
			Faults:      RateFaultPlan{MapRate: 0.3, ReduceRate: 0.3, Seed: 11},
			MaxAttempts: 12,
			Tracer:      tr, TelemetrySample: time.Millisecond,
		})
		out, err := engine.Run(confJob("conf-wordcount", 800, 6, 3))
		if err != nil {
			t.Fatal(err)
		}
		stats, ok := engine.LastProcStats()
		if !ok {
			t.Fatal("no ProcStats")
		}
		return out, stats
	}

	mem := obs.NewMemTracer()
	onOut, onStats := run(mem)
	offOut, offStats := run(nil)

	if offStats.TelemetryEvents != 0 {
		t.Errorf("telemetry-off run folded %d telemetry events, want 0", offStats.TelemetryEvents)
	}
	if onStats.TelemetryEvents == 0 {
		t.Error("telemetry-on run folded no events — off-run comparison proves nothing")
	}
	if !reflect.DeepEqual(onOut.Pairs, offOut.Pairs) {
		t.Error("output pairs differ between telemetry on and off")
	}
	if onOut.Counters != offOut.Counters {
		t.Errorf("counters differ: on=%+v off=%+v", onOut.Counters, offOut.Counters)
	}
	if onOut.Wasted != offOut.Wasted {
		t.Errorf("wasted differ: on=%+v off=%+v", onOut.Wasted, offOut.Wasted)
	}
}
