package mr

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"p3cmr/internal/obs"
)

// TestTraceSpanStructure: a traced job must produce a structurally valid
// stream — job span at the root, one task span per map task and non-empty
// reduce partition, a shuffle pseudo-task — whose job-level End carries
// exactly the job's output counters.
func TestTraceSpanStructure(t *testing.T) {
	const n, numSplits, numReducers = 1200, 6, 3
	mem := obs.NewMemTracer()
	engine := NewEngine(Config{Parallelism: 4, Tracer: mem})
	out, err := engine.Run(chaosJob(n, numSplits, numReducers))
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Validate(); err != nil {
		t.Fatalf("invalid span stream: %v", err)
	}

	jobs := mem.SpansOf(obs.KindJob)
	if len(jobs) != 1 {
		t.Fatalf("got %d job spans, want 1", len(jobs))
	}
	job := jobs[0]
	if job.Name != "chaos-wordcount" || job.Parent != 0 {
		t.Errorf("job span = %+v, want root span named chaos-wordcount", job)
	}
	jobEnd, ok := mem.EndOf(job.ID)
	if !ok {
		t.Fatal("job span never closed")
	}
	if jobEnd.Outcome != obs.OutcomeOK {
		t.Errorf("job outcome = %v, want ok", jobEnd.Outcome)
	}
	if jobEnd.Counters != out.Counters {
		t.Errorf("job span counters %+v != output counters %+v", jobEnd.Counters, out.Counters)
	}
	if jobEnd.RealSeconds <= 0 {
		t.Error("job span has no real duration")
	}

	var mapTasks, redTasks, shuffles int
	for _, s := range mem.SpansOf(obs.KindTask) {
		if s.Parent != job.ID {
			t.Errorf("task span %+v not parented by the job span", s)
		}
		switch s.Phase {
		case "map":
			mapTasks++
		case "reduce":
			redTasks++
		case "shuffle":
			shuffles++
			if s.Task != -1 {
				t.Errorf("shuffle span Task = %d, want -1", s.Task)
			}
			e, _ := mem.EndOf(s.ID)
			if e.Counters.ShuffledBytes != out.Counters.ShuffledBytes {
				t.Errorf("shuffle span bytes = %d, want %d", e.Counters.ShuffledBytes, out.Counters.ShuffledBytes)
			}
		default:
			t.Errorf("unexpected task phase %q", s.Phase)
		}
	}
	if mapTasks != numSplits {
		t.Errorf("map task spans = %d, want %d", mapTasks, numSplits)
	}
	// 17 distinct keys + "total" spread over 3 reducers: every partition is
	// non-empty, so every reducer ran.
	if redTasks != numReducers {
		t.Errorf("reduce task spans = %d, want %d", redTasks, numReducers)
	}
	if shuffles != 1 {
		t.Errorf("shuffle spans = %d, want 1", shuffles)
	}
}

// TestTraceFaultOutcomesAndPoints: injected failures must show up as
// fault-outcome attempt spans carrying the discarded counters, point events
// at the actual decision sites (with combine faults attributed to the
// combine phase), retry markers, and straggler charges.
func TestTraceFaultOutcomesAndPoints(t *testing.T) {
	plan := FaultPlanFunc(func(j string, phase TaskPhase, task, attempt int) FaultDecision {
		switch {
		case phase == PhaseMap && task == 2 && attempt == 0:
			return FaultDecision{Fail: true, FailFrac: 1} // dies after the full split
		case phase == PhaseCombine && task == 4 && attempt == 0:
			return FaultDecision{Fail: true}
		case phase == PhaseReduce && task == 1 && attempt == 0:
			return FaultDecision{StragglerSeconds: 2.5}
		}
		return FaultDecision{}
	})
	mem := obs.NewMemTracer()
	engine := NewEngine(Config{Parallelism: 4, Tracer: mem, Faults: plan})
	if _, err := engine.Run(chaosJob(1000, 5, 2)); err != nil {
		t.Fatal(err)
	}
	if err := mem.Validate(); err != nil {
		t.Fatalf("invalid span stream: %v", err)
	}

	// Map task 2: attempt 0 faulted with its work wasted, attempt 1 clean.
	var sawFaultEnd, sawRetrySuccess bool
	for _, e := range mem.Ends() {
		if e.Kind != obs.KindTask || e.Phase != "map" || e.Task != 2 {
			continue
		}
		switch e.Attempt {
		case 0:
			if e.Outcome != obs.OutcomeFault {
				t.Errorf("attempt 0 outcome = %v, want fault", e.Outcome)
			}
			if e.Wasted.MapInputRecords != 200 {
				t.Errorf("attempt 0 wasted mapIn = %d, want 200", e.Wasted.MapInputRecords)
			}
			if e.Counters != (Counters{}) {
				t.Errorf("faulted attempt committed counters: %+v", e.Counters)
			}
			sawFaultEnd = true
		case 1:
			if e.Outcome != obs.OutcomeOK {
				t.Errorf("attempt 1 outcome = %v, want ok", e.Outcome)
			}
			if e.Retries != 1 {
				t.Errorf("attempt 1 retries = %d, want 1", e.Retries)
			}
			sawRetrySuccess = true
		}
	}
	if !sawFaultEnd || !sawRetrySuccess {
		t.Fatalf("missing attempt spans for map task 2: fault=%v success=%v", sawFaultEnd, sawRetrySuccess)
	}

	points := map[string]int{}
	var stragglerSeconds float64
	for _, p := range mem.Points() {
		points[fmt.Sprintf("%s/%s", p.Kind, p.Phase)]++
		if p.Kind == obs.PointStraggler {
			stragglerSeconds += p.Seconds
		}
	}
	for _, want := range []string{"fault/map", "fault/combine", "straggler/reduce"} {
		if points[want] == 0 {
			t.Errorf("no %s point event (got %v)", want, points)
		}
	}
	// Retry points carry the task's phase (a combine fault retries the whole
	// map task), so both faults above surface as map retries.
	if points["retry/map"] != 2 {
		t.Errorf("retry/map points = %d, want 2 (got %v)", points["retry/map"], points)
	}
	if stragglerSeconds != 2.5 {
		t.Errorf("straggler points carry %g s, want 2.5", stragglerSeconds)
	}
}

// TestTraceErrorPathsCloseSpans: both real task errors and fault exhaustion
// must close every opened span, ending the job span with an error outcome
// that carries the job error text.
func TestTraceErrorPathsCloseSpans(t *testing.T) {
	t.Run("real-error", func(t *testing.T) {
		mem := obs.NewMemTracer()
		job := funcJob("doomed", makeSplits(100, 2), JobFuncs{
			NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
				if ctx.TaskID == 1 {
					return errors.New("boom")
				}
				return nil
			}),
		})
		_, err := NewEngine(Config{Parallelism: 2, Tracer: mem}).Run(job)
		if err == nil {
			t.Fatal("job must fail")
		}
		if verr := mem.Validate(); verr != nil {
			t.Fatalf("error path left the stream invalid: %v", verr)
		}
		jobEnd, ok := mem.EndOf(mem.SpansOf(obs.KindJob)[0].ID)
		if !ok || jobEnd.Outcome != obs.OutcomeError || jobEnd.Err == "" {
			t.Errorf("job end = %+v, want error outcome with message", jobEnd)
		}
	})
	t.Run("fault-exhaustion", func(t *testing.T) {
		mem := obs.NewMemTracer()
		plan := FaultPlanFunc(func(j string, phase TaskPhase, task, attempt int) FaultDecision {
			if phase == PhaseReduce {
				return FaultDecision{Fail: true, FailFrac: 0.5}
			}
			return FaultDecision{}
		})
		_, err := NewEngine(Config{Parallelism: 2, Tracer: mem, Faults: plan, MaxAttempts: 3}).Run(chaosJob(500, 4, 1))
		if err == nil {
			t.Fatal("doomed job must fail")
		}
		if verr := mem.Validate(); verr != nil {
			t.Fatalf("exhaustion path left the stream invalid: %v", verr)
		}
		// All three attempts must appear, all faulted, with no retry point
		// after the final one.
		var faulted, retryPoints int
		for _, e := range mem.Ends() {
			if e.Kind == obs.KindTask && e.Phase == "reduce" && e.Outcome == obs.OutcomeFault {
				faulted++
			}
		}
		for _, p := range mem.Points() {
			if p.Kind == obs.PointRetry {
				retryPoints++
			}
		}
		if faulted != 3 {
			t.Errorf("faulted attempts = %d, want 3", faulted)
		}
		if retryPoints != 2 {
			t.Errorf("retry points = %d, want 2 (no retry after the final attempt)", retryPoints)
		}
	})
}

// TestChaosTraceIdentity is the acceptance oracle for "tracing is pure
// observation": with a fault plan injecting retries and stragglers, output
// pairs, counters, wasted counters and simulated seconds must be
// bit-identical with tracing on and off, at every parallelism level.
func TestChaosTraceIdentity(t *testing.T) {
	plans := []struct {
		name string
		plan FaultPlan
	}{
		{"fault-free", nil},
		{"mixed", RateFaultPlan{MapRate: 0.4, CombineRate: 0.3, ReduceRate: 0.4,
			StragglerRate: 0.5, StragglerSeconds: 2, Seed: 21}},
	}
	for _, pc := range plans {
		for _, par := range []int{1, 8} {
			name := fmt.Sprintf("%s/par=%d", pc.name, par)
			cfg := Config{Parallelism: par, Faults: pc.plan, MaxAttempts: 12, Cost: DefaultCostModel()}
			untraced, err := NewEngine(cfg).Run(chaosJob(2000, 9, 4))
			if err != nil {
				t.Fatalf("%s: untraced: %v", name, err)
			}
			tcfg := cfg
			mem := obs.NewMemTracer()
			tcfg.Tracer = mem
			tcfg.Metrics = obs.NewRegistry()
			traced, err := NewEngine(tcfg).Run(chaosJob(2000, 9, 4))
			if err != nil {
				t.Fatalf("%s: traced: %v", name, err)
			}
			if !reflect.DeepEqual(traced.Pairs, untraced.Pairs) {
				t.Errorf("%s: tracing changed output pairs", name)
			}
			if traced.Counters != untraced.Counters {
				t.Errorf("%s: tracing changed counters:\n traced %+v\nuntraced %+v", name, traced.Counters, untraced.Counters)
			}
			if traced.Wasted != untraced.Wasted {
				t.Errorf("%s: tracing changed wasted counters:\n traced %+v\nuntraced %+v", name, traced.Wasted, untraced.Wasted)
			}
			if traced.SimulatedSeconds != untraced.SimulatedSeconds {
				t.Errorf("%s: tracing changed simulated seconds: %g vs %g", name, traced.SimulatedSeconds, untraced.SimulatedSeconds)
			}
			if err := mem.Validate(); err != nil {
				t.Errorf("%s: invalid span stream: %v", name, err)
			}
			if pc.plan != nil && traced.Counters.TaskRetries == 0 {
				t.Errorf("%s: fault plan injected no retries — identity proved nothing", name)
			}
		}
	}
}

// TestEngineMetrics: the registry aggregates must match the engine's own
// accounting across multiple jobs, including wasted work under faults.
func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	engine := NewEngine(Config{Parallelism: 4, Metrics: reg,
		Faults: RateFaultPlan{MapRate: 0.4, Seed: 5}, MaxAttempts: 12, Cost: DefaultCostModel()})
	for i := 0; i < 2; i++ {
		if _, err := engine.Run(chaosJob(800, 4, 2)); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	tot := engine.TotalCounters()
	wasted := engine.TotalWasted()
	checks := map[string]int64{
		"mr_jobs_total":               2,
		"mr_map_input_records_total":  tot.MapInputRecords,
		"mr_map_output_records_total": tot.MapOutputRecords,
		"mr_output_records_total":     tot.OutputRecords,
		"mr_shuffled_bytes_total":     tot.ShuffledBytes,
		"mr_task_retries_total":       tot.TaskRetries,
		"mr_wasted_records_total":     wasted.MapInputRecords + wasted.ReduceInputVals,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if tot.TaskRetries == 0 {
		t.Error("fault plan injected no retries")
	}
	if got, want := snap.Gauges["mr_simulated_seconds_total"], engine.TotalSimulatedSeconds(); got != want {
		t.Errorf("mr_simulated_seconds_total = %g, want %g", got, want)
	}
	h := snap.Histograms["mr_job_real_seconds"]
	if h.Count != 2 {
		t.Errorf("mr_job_real_seconds count = %d, want 2", h.Count)
	}
}
