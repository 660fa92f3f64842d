package mr

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// chaosJob builds the reference job for engine-level chaos runs: the
// conformance wordcount (map/reduce over sequential data with enough keys
// to spread across reducers) on the boxed emit lane. Retry-safe by
// construction (stateless mapper, non-mutating reducer).
func chaosJob(n, numSplits, numReducers int) *Job {
	return &Job{
		Name:        "chaos-wordcount",
		Splits:      makeSplits(n, numSplits),
		Impl:        "conf-wordcount",
		Spec:        []byte("boxed"),
		NumReducers: numReducers,
	}
}

// chaosTypedJob is chaosJob on the scalar lanes: same keys and counts, with
// int64 values riding the unboxed lanes. It must produce bit-identical
// output and counters to chaosJob (same job name, so fault plans inject
// the identical failure schedule).
func chaosTypedJob(n, numSplits, numReducers int) *Job {
	j := chaosJob(n, numSplits, numReducers)
	j.Spec = []byte("typed")
	return j
}

// normalized strips the retry count, which legitimately differs between a
// faulty and a fault-free run; every other counter must be bit-identical.
func normalized(c Counters) Counters {
	c.TaskRetries = 0
	return c
}

// TestChaosJobBitIdenticalAcrossPlans is the engine-level chaos oracle: for
// a sweep of fault plans (map-only, reduce-only, mixed with stragglers) ×
// parallelism levels, job output pairs and all data counters must be
// bit-identical to the fault-free baseline — PR 1's determinism guarantee
// extended over the whole fault model.
func TestChaosJobBitIdenticalAcrossPlans(t *testing.T) {
	const n, numSplits, numReducers = 2000, 9, 4
	baselineOut, err := NewEngine(Config{Parallelism: 4}).Run(chaosJob(n, numSplits, numReducers))
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name string
		plan FaultPlan
	}{
		{"map-only", RateFaultPlan{MapRate: 0.5, Seed: 7}},
		{"reduce-only", RateFaultPlan{ReduceRate: 0.5, Seed: 11}},
		{"mixed-stragglers", RateFaultPlan{MapRate: 0.3, ReduceRate: 0.3,
			StragglerRate: 0.5, StragglerSeconds: 3, Seed: 13}},
	}
	var totalRetries int64
	for _, pc := range plans {
		for _, par := range []int{1, 2, 8} {
			name := fmt.Sprintf("%s/par=%d", pc.name, par)
			engine := NewEngine(Config{Parallelism: par, Faults: pc.plan, MaxAttempts: 12})
			out, err := engine.Run(chaosJob(n, numSplits, numReducers))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(out.Pairs, baselineOut.Pairs) {
				t.Errorf("%s: output pairs differ from fault-free baseline", name)
			}
			if got, want := normalized(out.Counters), normalized(baselineOut.Counters); got != want {
				t.Errorf("%s: counters differ:\n got %+v\nwant %+v", name, got, want)
			}
			totalRetries += out.Counters.TaskRetries
		}
	}
	if totalRetries == 0 {
		t.Error("chaos sweep injected no retries — the oracle exercised nothing")
	}
}

// TestChaosPoisonedPoolsRetrySafety is the pooled-buffer retry-safety
// oracle. With DebugPoisonPools on, every buffer returned to an engine pool
// is overwritten with sentinel garbage (poisoned key table entries, records
// with key ^uint32(0) and value bits 0x7ff0dead7ff0dead) instead of being
// cleared — so an attempt that reads a buffer it no longer owns, or a pool
// return that races a live retry, corrupts output visibly rather than
// passing by luck on zeroed memory. Back-to-back jobs on one engine under an
// aggressive fault plan at parallelism {1,8}, boxed and typed, must stay
// bit-identical to the clean un-poisoned baseline, and no poison sentinel
// may ever surface in job output.
func TestChaosPoisonedPoolsRetrySafety(t *testing.T) {
	const n, numSplits, numReducers = 2000, 9, 4
	baseline, err := NewEngine(Config{Parallelism: 4}).Run(chaosJob(n, numSplits, numReducers))
	if err != nil {
		t.Fatal(err)
	}
	plan := RateFaultPlan{MapRate: 0.4, ReduceRate: 0.4, Seed: 21}
	jobs := []struct {
		name string
		mk   func() *Job
	}{
		{"boxed", func() *Job { return chaosJob(n, numSplits, numReducers) }},
		{"typed", func() *Job { return chaosTypedJob(n, numSplits, numReducers) }},
	}
	for _, par := range []int{1, 8} {
		for _, jc := range jobs {
			name := fmt.Sprintf("%s/par=%d", jc.name, par)
			// One engine across rounds: round 2+ consumes buffers round 1
			// poisoned at return time.
			engine := NewEngine(Config{Parallelism: par, Faults: plan, MaxAttempts: 12, DebugPoisonPools: true})
			var retries int64
			for round := 0; round < 3; round++ {
				out, err := engine.Run(jc.mk())
				if err != nil {
					t.Fatalf("%s round %d: %v", name, round, err)
				}
				if !reflect.DeepEqual(out.Pairs, baseline.Pairs) {
					t.Fatalf("%s round %d: output differs from clean baseline — a task read a recycled (poisoned) buffer", name, round)
				}
				if got, want := normalized(out.Counters), normalized(baseline.Counters); got != want {
					t.Errorf("%s round %d: counters differ:\n got %+v\nwant %+v", name, round, got, want)
				}
				for _, p := range out.Pairs {
					if strings.Contains(p.Key, "\x00poisoned\x00") {
						t.Fatalf("%s round %d: poisoned key sentinel surfaced in output: %q", name, round, p.Key)
					}
					if v, ok := p.Value.(int64); ok && v == 0x7ff0dead7ff0dead {
						t.Fatalf("%s round %d: poison value sentinel surfaced in output for key %q", name, round, p.Key)
					}
				}
				retries += out.Counters.TaskRetries
			}
			if retries == 0 {
				t.Errorf("%s: fault plan injected no retries — the oracle exercised nothing", name)
			}
		}
	}
}

// TestMapFaultAttemptDoesNotLeakCounters pins the retry-counter bug class:
// a map attempt that fails after emitting its pairs must not leak those
// pairs, its RecordsRead, or its ShuffledBytes into the job's final
// counters — they belong to Wasted instead.
func TestMapFaultAttemptDoesNotLeakCounters(t *testing.T) {
	job := func() *Job { return chaosJob(1000, 5, 3) }
	clean, err := NewEngine(Config{Parallelism: 4}).Run(job())
	if err != nil {
		t.Fatal(err)
	}
	// Task 2's first attempt dies after the full record loop (FailFrac 1):
	// every record was read and every pair emitted, then thrown away.
	plan := FaultPlanFunc(func(j string, phase TaskPhase, task, attempt int) FaultDecision {
		if phase == PhaseMap && task == 2 && attempt == 0 {
			return FaultDecision{Fail: true, FailFrac: 1}
		}
		return FaultDecision{}
	})
	faulty, err := NewEngine(Config{Parallelism: 4, Faults: plan}).Run(job())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalized(faulty.Counters), normalized(clean.Counters); got != want {
		t.Fatalf("failed attempt leaked into final counters:\n got %+v\nwant %+v", got, want)
	}
	if faulty.Counters.TaskRetries != 1 {
		t.Errorf("TaskRetries = %d, want 1", faulty.Counters.TaskRetries)
	}
	if !reflect.DeepEqual(faulty.Pairs, clean.Pairs) {
		t.Error("failed attempt leaked pairs into job output")
	}
	// The discarded attempt read task 2's whole split (200 of 1000 rows) and
	// emitted 2 pairs per row; that work must show up as Wasted.
	if faulty.Wasted.MapInputRecords != 200 {
		t.Errorf("Wasted.MapInputRecords = %d, want 200", faulty.Wasted.MapInputRecords)
	}
	if faulty.Wasted.MapOutputRecords != 400 {
		t.Errorf("Wasted.MapOutputRecords = %d, want 400", faulty.Wasted.MapOutputRecords)
	}
	if clean.Wasted != (Counters{}) {
		t.Errorf("fault-free run recorded wasted work: %+v", clean.Wasted)
	}
}

// TestReduceFaultRetry: a reduce attempt that fails MaxAttempts-1 times
// must still succeed on the final attempt with output identical to the
// fault-free run, from its immutable shuffled input.
func TestReduceFaultRetry(t *testing.T) {
	const maxAttempts = 4
	job := func() *Job { return chaosJob(1500, 6, 3) }
	clean, err := NewEngine(Config{Parallelism: 4}).Run(job())
	if err != nil {
		t.Fatal(err)
	}
	// Every reduce task fails its first MaxAttempts-1 attempts at varying
	// positions in the key loop, succeeding only on the last attempt.
	plan := FaultPlanFunc(func(j string, phase TaskPhase, task, attempt int) FaultDecision {
		if phase == PhaseReduce && attempt < maxAttempts-1 {
			return FaultDecision{Fail: true, FailFrac: float64(attempt) / float64(maxAttempts-1)}
		}
		return FaultDecision{}
	})
	faulty, err := NewEngine(Config{Parallelism: 4, Faults: plan, MaxAttempts: maxAttempts}).Run(job())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(faulty.Pairs, clean.Pairs) {
		t.Error("reduce retry changed job output")
	}
	if got, want := normalized(faulty.Counters), normalized(clean.Counters); got != want {
		t.Fatalf("reduce retry leaked counters:\n got %+v\nwant %+v", got, want)
	}
	// 3 reduce tasks × (maxAttempts-1) failed attempts each.
	if want := int64(3 * (maxAttempts - 1)); faulty.Counters.TaskRetries != want {
		t.Errorf("TaskRetries = %d, want %d", faulty.Counters.TaskRetries, want)
	}
	if faulty.Wasted.ReduceInputKeys == 0 {
		t.Error("failed reduce attempts recorded no wasted reduce keys")
	}
}

// TestReduceFaultExhaustion: a reduce task whose every attempt fails must
// surface a wrapped errInjectedFailure carrying the job and task identity.
func TestReduceFaultExhaustion(t *testing.T) {
	plan := FaultPlanFunc(func(j string, phase TaskPhase, task, attempt int) FaultDecision {
		if phase == PhaseReduce {
			return FaultDecision{Fail: true, FailFrac: 0.5}
		}
		return FaultDecision{}
	})
	engine := NewEngine(Config{Parallelism: 2, Faults: plan, MaxAttempts: 3})
	_, err := engine.Run(chaosJob(500, 4, 1))
	if err == nil {
		t.Fatal("doomed reduce task must exhaust attempts")
	}
	if !errors.Is(err, errInjectedFailure) {
		t.Errorf("error does not wrap errInjectedFailure: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, `job "chaos-wordcount"`) || !strings.Contains(msg, "reduce task 0") {
		t.Errorf("error lacks job/task identity: %q", msg)
	}
	if !strings.Contains(msg, "after 3 attempts") {
		t.Errorf("error lacks attempt count: %q", msg)
	}
}

// TestMapFaultExhaustionIdentity mirrors the reduce case on the map side.
func TestMapFaultExhaustionIdentity(t *testing.T) {
	plan := FaultPlanFunc(func(j string, phase TaskPhase, task, attempt int) FaultDecision {
		if phase == PhaseMap && task == 3 {
			return FaultDecision{Fail: true}
		}
		return FaultDecision{}
	})
	engine := NewEngine(Config{Parallelism: 2, Faults: plan, MaxAttempts: 2})
	_, err := engine.Run(chaosJob(500, 4, 2))
	if err == nil {
		t.Fatal("doomed map task must exhaust attempts")
	}
	if !errors.Is(err, errInjectedFailure) {
		t.Errorf("error does not wrap errInjectedFailure: %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `job "chaos-wordcount"`) || !strings.Contains(msg, "map task 3") {
		t.Errorf("error lacks job/task identity: %q", msg)
	}
}

// TestChaosCancellationStopsSiblings: when one task fails permanently, the
// run's cancellation must stop sibling in-flight tasks between records
// instead of letting them run to completion on a job already doomed.
func TestChaosCancellationStopsSiblings(t *testing.T) {
	const rows = 20000
	// Task 0 dies instantly and permanently (MaxAttempts 1); task 1 crawls,
	// yielding between records so the cooperative poll can catch it.
	plan := FaultPlanFunc(func(j string, phase TaskPhase, task, attempt int) FaultDecision {
		if phase == PhaseMap && task == 0 {
			return FaultDecision{Fail: true, FailFrac: 0}
		}
		return FaultDecision{}
	})
	var processed atomic.Int64
	job := funcJob("doomed-siblings", makeSplits(rows, 2), JobFuncs{
		NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
			if ctx.TaskID == 1 {
				processed.Add(1)
				time.Sleep(50 * time.Microsecond)
			}
			return nil
		}),
	})
	engine := NewEngine(Config{Parallelism: 2, Faults: plan, MaxAttempts: 1})
	_, err := engine.Run(job)
	if err == nil {
		t.Fatal("job with a permanently failed task must error")
	}
	if !strings.Contains(err.Error(), "map task 0") {
		t.Errorf("job error must name the failed task, got %q", err.Error())
	}
	if got := processed.Load(); got >= rows/2 {
		t.Errorf("sibling task ran to completion (%d records) despite cancellation", got)
	}
}

// TestFaultRetriesChargedInCostModel: re-executed attempts and straggler delays
// must surface as modeled runtime so Figure-7-style shape experiments see
// fault tolerance as slowdown, while counters stay exact.
func TestFaultRetriesChargedInCostModel(t *testing.T) {
	cost := DefaultCostModel()
	job := func() *Job { return chaosJob(1000, 5, 2) }
	clean, err := NewEngine(Config{Parallelism: 4, Cost: cost}).Run(job())
	if err != nil {
		t.Fatal(err)
	}

	// Straggler-only plan: every map attempt straggles by 2 simulated
	// seconds; the delta must be exactly numSplits × 2 s.
	stragglerPlan := FaultPlanFunc(func(j string, phase TaskPhase, task, attempt int) FaultDecision {
		if phase == PhaseMap {
			return FaultDecision{StragglerSeconds: 2}
		}
		return FaultDecision{}
	})
	slow, err := NewEngine(Config{Parallelism: 4, Cost: cost, Faults: stragglerPlan}).Run(job())
	if err != nil {
		t.Fatal(err)
	}
	wantDelta := 5 * 2.0
	if got := slow.SimulatedSeconds - clean.SimulatedSeconds; got < wantDelta-1e-9 || got > wantDelta+1e-9 {
		t.Errorf("straggler charge = %g simulated seconds, want %g", got, wantDelta)
	}
	if slow.SimulatedSeconds == clean.SimulatedSeconds {
		t.Error("stragglers not charged")
	}

	// Retry plan: one full map attempt is wasted; simulated time must grow
	// by exactly the modeled cost of the wasted work.
	retryPlan := FaultPlanFunc(func(j string, phase TaskPhase, task, attempt int) FaultDecision {
		if phase == PhaseMap && task == 1 && attempt == 0 {
			return FaultDecision{Fail: true, FailFrac: 1}
		}
		return FaultDecision{}
	})
	retried, err := NewEngine(Config{Parallelism: 4, Cost: cost, Faults: retryPlan}).Run(job())
	if err != nil {
		t.Fatal(err)
	}
	if retried.SimulatedSeconds <= clean.SimulatedSeconds {
		t.Errorf("retried run modeled at %g s, not above fault-free %g s",
			retried.SimulatedSeconds, clean.SimulatedSeconds)
	}
	// The wasted charge follows the same per-record/per-byte rates as
	// committed work (mapPar = 5 splits < 112 slots).
	w := retried.Wasted
	wantWaste := cost.SecondsPerMapRecord*float64(w.MapInputRecords)/5 +
		cost.SecondsPerShuffleByte*float64(w.ShuffledBytes) +
		cost.SecondsPerReduceValue*float64(w.ReduceInputVals)/2
	if got := retried.SimulatedSeconds - clean.SimulatedSeconds; got < wantWaste-1e-9 || got > wantWaste+1e-9 {
		t.Errorf("retry charge = %g simulated seconds, want %g", got, wantWaste)
	}
	if got, want := normalized(retried.Counters), normalized(clean.Counters); got != want {
		t.Errorf("cost-model run leaked wasted counters:\n got %+v\nwant %+v", got, want)
	}
}

// TestFaultTotalsSeparateWastedWork: engine-lifetime accounting keeps
// committed and wasted counters apart.
func TestFaultTotalsSeparateWastedWork(t *testing.T) {
	cleanEngine := NewEngine(Config{Parallelism: 2})
	if _, err := cleanEngine.Run(chaosJob(600, 3, 2)); err != nil {
		t.Fatal(err)
	}
	faultyEngine := NewEngine(Config{Parallelism: 2, Faults: UniformFaults(0.4, 3), MaxAttempts: 12})
	if _, err := faultyEngine.Run(chaosJob(600, 3, 2)); err != nil {
		t.Fatal(err)
	}
	if got, want := normalized(faultyEngine.TotalCounters()), normalized(cleanEngine.TotalCounters()); got != want {
		t.Errorf("TotalCounters not exact under faults:\n got %+v\nwant %+v", got, want)
	}
	if faultyEngine.TotalWasted() == (Counters{}) {
		t.Error("TotalWasted empty despite 40% fault rate")
	}
	if cleanEngine.TotalWasted() != (Counters{}) {
		t.Error("fault-free engine accumulated wasted work")
	}
	faultyEngine.ResetAccounting()
	if faultyEngine.TotalWasted() != (Counters{}) {
		t.Error("ResetAccounting kept wasted totals")
	}
}

// TestFaultPlanDeterminism: a RateFaultPlan must be a pure function of its
// identity tuple — same decision on every call, different streams for
// different jobs (the old FailureSeed xor-folding correlated all jobs).
func TestFaultPlanDeterminism(t *testing.T) {
	plan := RateFaultPlan{MapRate: 0.5, ReduceRate: 0.5, StragglerRate: 0.5, StragglerSeconds: 1, Seed: 42}
	for task := 0; task < 20; task++ {
		for attempt := 0; attempt < 3; attempt++ {
			a := plan.Decide("jobA", PhaseMap, task, attempt)
			b := plan.Decide("jobA", PhaseMap, task, attempt)
			if a != b {
				t.Fatalf("Decide not deterministic for task %d attempt %d: %+v vs %+v", task, attempt, a, b)
			}
		}
	}
	// Across 64 tasks, at least one decision must differ between two job
	// names, two phases, and two seeds — otherwise streams are correlated.
	differs := func(f, g func(task int) FaultDecision) bool {
		for task := 0; task < 64; task++ {
			if f(task) != g(task) {
				return true
			}
		}
		return false
	}
	if !differs(
		func(task int) FaultDecision { return plan.Decide("jobA", PhaseMap, task, 0) },
		func(task int) FaultDecision { return plan.Decide("jobB", PhaseMap, task, 0) }) {
		t.Error("fault stream identical across job names")
	}
	if !differs(
		func(task int) FaultDecision { return plan.Decide("jobA", PhaseMap, task, 0) },
		func(task int) FaultDecision { return plan.Decide("jobA", PhaseReduce, task, 0) }) {
		t.Error("fault stream identical across phases")
	}
	other := plan
	other.Seed = 43
	if !differs(
		func(task int) FaultDecision { return plan.Decide("jobA", PhaseMap, task, 0) },
		func(task int) FaultDecision { return other.Decide("jobA", PhaseMap, task, 0) }) {
		t.Error("fault stream identical across seeds")
	}
}

// TestTaskPhaseString pins the phase names used in DESIGN.md §3c.
func TestTaskPhaseString(t *testing.T) {
	for phase, want := range map[TaskPhase]string{
		PhaseMap: "map", PhaseReduce: "reduce", TaskPhase(1): "unknown", TaskPhase(99): "unknown",
	} {
		if got := phase.String(); got != want {
			t.Errorf("TaskPhase(%d).String() = %q, want %q", int(phase), got, want)
		}
	}
}

// TestFaultDecisionsPinned pins RateFaultPlan's exact decision stream for
// fixed attempt identities on both task phases, straggler draw included.
// faultSeed hashes the phase's numeric value, so renumbering TaskPhase, or
// changing the hash or the order of the draws, would silently redraw every
// fault and straggler of every chaos run; this test catches that.
func TestFaultDecisionsPinned(t *testing.T) {
	cases := []struct {
		seed          int64
		job           string
		phase         TaskPhase
		task, attempt int
		want          FaultDecision
	}{
		{42, "histograms", PhaseMap, 0, 0, FaultDecision{Fail: true, FailFrac: 0.4547187734134979, StragglerSeconds: 2.5}},
		{42, "histograms", PhaseMap, 3, 1, FaultDecision{Fail: true, FailFrac: 0.7436704614195411, StragglerSeconds: 2.5}},
		{42, "histograms", PhaseReduce, 1, 0, FaultDecision{StragglerSeconds: 2.5}},
		{7, "em-moments", PhaseMap, 5, 0, FaultDecision{Fail: true, FailFrac: 0.3742811050537627}},
		{7, "em-moments", PhaseReduce, 0, 2, FaultDecision{Fail: true, FailFrac: 0.7937501614975419}},
		{7, "em-moments", PhaseReduce, 4, 0, FaultDecision{}},
		{13, "conf-wordcount", PhaseMap, 2, 3, FaultDecision{}},
		{13, "conf-wordcount", PhaseReduce, 7, 1, FaultDecision{Fail: true, FailFrac: 0.7343587714814587, StragglerSeconds: 2.5}},
	}
	for _, c := range cases {
		plan := RateFaultPlan{MapRate: 0.5, ReduceRate: 0.5, StragglerRate: 0.5, StragglerSeconds: 2.5, Seed: c.seed}
		if got := plan.Decide(c.job, c.phase, c.task, c.attempt); got != c.want {
			t.Errorf("Decide(seed=%d, %q, %v, task=%d, attempt=%d) = %+v, want %+v",
				c.seed, c.job, c.phase, c.task, c.attempt, got, c.want)
		}
	}
}
