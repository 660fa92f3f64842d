package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"testing"

	"p3cmr/internal/core"
	"p3cmr/internal/dataset"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

// TestAnalyzeReconcilesWithLiveSinks is the p3ctrace oracle: it traces a
// chaos-plan pipeline through three sinks at once — a JSONL trace (what
// p3ctrace consumes), a MemTracer (ground-truth span log), and a live
// forest (what -report renders) — and asserts the offline analysis and the
// live report both agree with the ground truth event for event.
func TestAnalyzeReconcilesWithLiveSinks(t *testing.T) {
	data, _, err := dataset.Generate(dataset.GenConfig{N: 2000, Dim: 12, Clusters: 3, NoiseFraction: 0.1, Seed: 55, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	params := core.LightParams()
	params.NumSplits = 12

	var buf bytes.Buffer
	jsonl := obs.NewJSONLTracer(&buf)
	mem := obs.NewMemTracer()
	live := obs.NewForest()
	engine := mr.NewEngine(mr.Config{
		Parallelism: 8, NumReducers: 3,
		Faults:      mr.RateFaultPlan{MapRate: 0.25, ReduceRate: 0.3, StragglerRate: 0.4, StragglerSeconds: 7, Seed: 107},
		MaxAttempts: 12,
		Tracer:      obs.Multi(jsonl, mem, live),
	})
	res, err := core.Run(engine, data, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Counters.TaskRetries == 0 {
		t.Fatal("chaos plan injected no retries — oracle exercises nothing")
	}

	forest, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := forest.Analyze(5)
	if len(a.Runs) != 1 {
		t.Fatalf("analysis found %d roots, want 1 pipeline run", len(a.Runs))
	}
	run := a.Runs[0]
	if run.Name != "p3c-pipeline" || run.Kind != "run" || run.Outcome != "ok" {
		t.Fatalf("run analysis = %+v", run)
	}

	// --- reconcile with the MemTracer ground truth -----------------------
	wantAttempts, wantFaults, wantCancels := 0, 0, 0
	for _, e := range mem.Ends() {
		if e.Kind == obs.KindTask && e.Phase != "shuffle" {
			wantAttempts++
			switch e.Outcome {
			case obs.OutcomeFault:
				wantFaults++
			case obs.OutcomeCancelled:
				wantCancels++
			}
		}
	}
	if run.TaskAttempts != wantAttempts {
		t.Errorf("analysis counts %d task attempts, MemTracer saw %d", run.TaskAttempts, wantAttempts)
	}
	if run.Faults != wantFaults {
		t.Errorf("analysis counts %d faults, MemTracer saw %d", run.Faults, wantFaults)
	}
	if run.Cancels < wantCancels {
		t.Errorf("analysis counts %d cancels, MemTracer saw %d cancelled attempts", run.Cancels, wantCancels)
	}
	if run.Retries != res.Stats.Counters.TaskRetries {
		t.Errorf("analysis run retries = %d, pipeline counted %d", run.Retries, res.Stats.Counters.TaskRetries)
	}

	// Per-phase simulated/wall totals must match the phase spans MemTracer
	// recorded, phase by phase in order.
	var phaseEnds []obs.End
	for _, e := range mem.Ends() {
		if e.Kind == obs.KindPhase {
			phaseEnds = append(phaseEnds, e)
		}
	}
	if len(run.Phases) != len(phaseEnds) {
		t.Fatalf("analysis has %d phases, MemTracer saw %d", len(run.Phases), len(phaseEnds))
	}
	planned := params.PhasePlan()
	if len(planned) != len(run.Phases) {
		t.Fatalf("PhasePlan promises %d phases, trace has %d", len(planned), len(run.Phases))
	}
	for i, p := range run.Phases {
		if p.Name != planned[i] {
			t.Errorf("phase %d = %q, PhasePlan says %q", i, p.Name, planned[i])
		}
		if p.Name != phaseEnds[i].Name {
			t.Errorf("phase %d = %q, MemTracer saw %q", i, p.Name, phaseEnds[i].Name)
		}
		if math.Abs(p.SimulatedSeconds-phaseEnds[i].SimulatedSeconds) > 1e-9 {
			t.Errorf("phase %q sim %g vs MemTracer %g", p.Name, p.SimulatedSeconds, phaseEnds[i].SimulatedSeconds)
		}
		if math.Abs(p.WallSeconds-phaseEnds[i].RealSeconds) > 1e-9 {
			t.Errorf("phase %q wall %g vs MemTracer %g", p.Name, p.WallSeconds, phaseEnds[i].RealSeconds)
		}
	}

	// Straggler attribution totals must equal the straggler points emitted.
	var wantStragglerS float64
	wantStragglers := 0
	for _, p := range mem.Points() {
		if p.Kind == obs.PointStraggler {
			wantStragglers++
			wantStragglerS += p.Seconds
		}
	}
	gotStragglers, gotStragglerS := 0, 0.0
	for _, s := range run.Stragglers {
		gotStragglers += s.Count
		gotStragglerS += s.Seconds
	}
	if gotStragglers != wantStragglers || math.Abs(gotStragglerS-wantStragglerS) > 1e-9 {
		t.Errorf("straggler attribution %d/%.3fs, MemTracer saw %d/%.3fs",
			gotStragglers, gotStragglerS, wantStragglers, wantStragglerS)
	}
	if wantStragglers == 0 {
		t.Error("plan injected no stragglers — attribution untested")
	}

	// Retry-waste attribution: fault attempts must sum to the fault count.
	wasteFaults := 0
	for _, w := range run.RetryWaste {
		wasteFaults += w.FaultAttempts
	}
	if wasteFaults != wantFaults {
		t.Errorf("retry-waste rows cover %d fault attempts, want %d", wasteFaults, wantFaults)
	}

	// --- reconcile the live report's summary line -------------------------
	var repBuf bytes.Buffer
	if err := live.WriteReport(&repBuf); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`run summary: (\d+) jobs, (\d+) task attempts \((\d+) faulted, (\d+) cancelled\), (\d+) retries`).
		FindStringSubmatch(repBuf.String())
	if m == nil {
		t.Fatalf("report summary line not found in:\n%s", repBuf.String())
	}
	atoi := func(s string) int { n, _ := strconv.Atoi(s); return n }
	if atoi(m[2]) != wantAttempts || atoi(m[3]) != wantFaults || int64(atoi(m[5])) != res.Stats.Counters.TaskRetries {
		t.Errorf("report says %s attempts/%s faults/%s retries; MemTracer saw %d/%d, pipeline counted %d retries",
			m[2], m[3], m[5], wantAttempts, wantFaults, res.Stats.Counters.TaskRetries)
	}

	// --- structural critical-path checks ---------------------------------
	cp := run.CriticalPath
	if len(cp) < 3 {
		t.Fatalf("critical path has %d steps, want at least run→phase→job", len(cp))
	}
	if cp[0].Kind != "run" || cp[0].Depth != 0 {
		t.Errorf("critical path starts at %q (depth %d), want the run", cp[0].Kind, cp[0].Depth)
	}
	// Each step lies inside its parent (the nearest earlier step one level
	// up), follows its chain predecessor (the nearest earlier step at its
	// level under the same parent) without overlapping it, and has a
	// non-negative self time.
	var cpPhases []string
	for i := 1; i < len(cp); i++ {
		parent, prev := -1, -1
		for j := i - 1; j >= 0 && parent < 0; j-- {
			switch {
			case cp[j].Depth == cp[i].Depth-1:
				parent = j
			case cp[j].Depth == cp[i].Depth && prev < 0:
				prev = j
			}
		}
		if parent < 0 {
			t.Fatalf("critical-path step %d (depth %d) has no parent step", i, cp[i].Depth)
		}
		if cp[i].StartS < cp[parent].StartS-1e-9 || cp[i].EndS > cp[parent].EndS+1e-9 {
			t.Errorf("critical-path step %d [%g,%g] not contained in parent [%g,%g]",
				i, cp[i].StartS, cp[i].EndS, cp[parent].StartS, cp[parent].EndS)
		}
		if prev >= 0 && cp[i].StartS < cp[prev].EndS {
			t.Errorf("critical-path step %d starts at %g, before its chain predecessor ends at %g",
				i, cp[i].StartS, cp[prev].EndS)
		}
		if cp[i].SelfSeconds < 0 {
			t.Errorf("critical-path step %d has negative self time", i)
		}
		if cp[i].Depth == 1 {
			cpPhases = append(cpPhases, cp[i].Name)
		}
	}
	// The pipeline's phases run one after another, so all of them gate the
	// run's end: the path's first level is the phase plan, in order.
	if fmt.Sprint(cpPhases) != fmt.Sprint(planned) {
		t.Errorf("critical path phases = %v, PhasePlan says %v", cpPhases, planned)
	}

	// Skew rows: every (job, phase) group's max must be >= its median, and
	// the listed slowest attempt must exist in the trace.
	if len(run.Skew) == 0 {
		t.Fatal("no skew rows for a multi-job pipeline")
	}
	for _, s := range run.Skew {
		if s.MaxS+1e-12 < s.MedianS || s.MaxS+1e-12 < s.P90S {
			t.Errorf("skew row %s/%s has max %g < median %g or p90 %g", s.Job, s.Phase, s.MaxS, s.MedianS, s.P90S)
		}
	}

	// Top-K list: bounded by K and sorted descending.
	if len(run.Slowest) > 5 {
		t.Errorf("top-K list has %d entries, want <= 5", len(run.Slowest))
	}
	for i := 1; i < len(run.Slowest); i++ {
		if run.Slowest[i].Seconds > run.Slowest[i-1].Seconds {
			t.Errorf("slowest list not sorted at %d", i)
		}
	}

	// The text renderer must handle the full analysis without error.
	var txt bytes.Buffer
	if err := writeText(&txt, a, true); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"critical path", "skew (job/phase)", "retry waste (job)", "slowest attempts"} {
		if !bytes.Contains(txt.Bytes(), []byte(want)) {
			t.Errorf("text output missing %q section", want)
		}
	}
}

// TestMain lets this test binary serve as a multiprocess-backend worker
// when the worker-attribution test below re-execs it.
func TestMain(m *testing.M) {
	mr.MaybeWorkerProcess()
	os.Exit(m.Run())
}

func init() {
	mr.RegisterJobImpl("trace-wordcount", func(spec []byte) (mr.JobFuncs, error) {
		return mr.JobFuncs{
			NewMapper: func() mr.Mapper {
				return mr.MapperFunc(func(ctx *mr.TaskContext, global int, row []float64) error {
					ctx.Emit(strconv.Itoa(int(row[0])%13), int64(1))
					return nil
				})
			},
			TypedReducer: mr.TypedReducerFunc(func(ctx *mr.TaskContext, key string, values mr.Values) error {
				var s int64
				for i := 0; i < values.Len(); i++ {
					s += values.Value(i).(int64)
				}
				ctx.Emit(key, s)
				return nil
			}),
		}, nil
	})
}

// TestAnalyzeWorkerAttribution pins the per-worker view of a multiprocess
// trace: every task attempt span carries the worker process it ran on, the
// worker table partitions the run's attempts and faults exactly, and
// faulted (SIGKILLed) attempts are attributed to the worker that died.
func TestAnalyzeWorkerAttribution(t *testing.T) {
	rows := make([]float64, 600)
	for i := range rows {
		rows[i] = float64(i)
	}
	splits := make([]*mr.Split, 6)
	for s := range splits {
		splits[s] = &mr.Split{ID: s, Offset: s * 100, Dim: 1, Rows: rows[s*100 : (s+1)*100]}
	}
	job := &mr.Job{Name: "trace-wc", Splits: splits, Impl: "trace-wordcount", NumReducers: 3}

	var buf bytes.Buffer
	jsonl := obs.NewJSONLTracer(&buf)
	engine := mr.NewEngine(mr.Config{
		Parallelism: 4, Backend: "multiprocess", SpillDir: t.TempDir(), SpillThresholdBytes: 1,
		Faults:      mr.RateFaultPlan{MapRate: 0.4, ReduceRate: 0.4, Seed: 3},
		MaxAttempts: 12, Tracer: jsonl,
	})
	out, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	if out.Counters.TaskRetries == 0 {
		t.Fatal("fault plan injected no retries — attribution untested")
	}

	forest, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := forest.Analyze(10)
	if len(a.Runs) != 1 {
		t.Fatalf("analysis found %d roots, want 1", len(a.Runs))
	}
	run := a.Runs[0]
	if len(run.Workers) == 0 {
		t.Fatal("multiprocess trace produced no worker rows")
	}
	attempts, faults := 0, 0
	for _, w := range run.Workers {
		if w.Worker == "" || w.Attempts == 0 {
			t.Errorf("implausible worker row %+v", w)
		}
		attempts += w.Attempts
		faults += w.Faults
	}
	if attempts != run.TaskAttempts {
		t.Errorf("worker rows cover %d attempts, run has %d", attempts, run.TaskAttempts)
	}
	if faults != run.Faults {
		t.Errorf("worker rows cover %d faults, run has %d", faults, run.Faults)
	}
	if faults == 0 {
		t.Error("no fault attributed to any worker despite injected kills")
	}
	for _, s := range run.Slowest {
		if s.Worker == "" {
			t.Errorf("slowest attempt %+v lacks worker attribution", s)
		}
	}
}
