package core

import (
	"fmt"
	"testing"

	"p3cmr/internal/mr"
)

// chaosPlans is the fault-plan sweep of the pipeline chaos harness: map-only
// faults, reduce-only faults, and a mixed plan with simulated stragglers.
// Rates are aggressive (a third to nearly half of all attempts die) so
// every one of the pipeline's job shapes sees retries; MaxAttempts 12 keeps
// the chance of deterministic exhaustion negligible.
var chaosPlans = []struct {
	name string
	plan mr.FaultPlan
}{
	{"map-only", mr.RateFaultPlan{MapRate: 0.35, Seed: 101}},
	{"reduce-only", mr.RateFaultPlan{ReduceRate: 0.45, Seed: 103}},
	{"mixed-stragglers", mr.RateFaultPlan{MapRate: 0.25, ReduceRate: 0.3,
		StragglerRate: 0.4, StragglerSeconds: 7, Seed: 107}},
}

// assertChaosRun compares a faulty pipeline run against the fault-free
// baseline: labels, relevant-attribute sets, cores, signatures and all data
// counters must be bit-identical — the fault model may only cost (modeled)
// time, never change a single output bit.
func assertChaosRun(t *testing.T, name string, clean, faulty *Result) {
	t.Helper()
	if len(faulty.Labels) != len(clean.Labels) {
		t.Fatalf("%s: label count %d vs %d", name, len(faulty.Labels), len(clean.Labels))
	}
	for i := range clean.Labels {
		if faulty.Labels[i] != clean.Labels[i] {
			t.Fatalf("%s: label %d differs under faults (%d vs %d)", name, i, faulty.Labels[i], clean.Labels[i])
		}
	}
	if fmt.Sprint(faulty.RelevantAttrs) != fmt.Sprint(clean.RelevantAttrs) {
		t.Errorf("%s: relevant attrs differ: %v vs %v", name, faulty.RelevantAttrs, clean.RelevantAttrs)
	}
	if len(faulty.Cores) != len(clean.Cores) {
		t.Fatalf("%s: %d cores vs %d", name, len(faulty.Cores), len(clean.Cores))
	}
	for i := range clean.Cores {
		if !faulty.Cores[i].Equal(clean.Cores[i]) {
			t.Errorf("%s: core %d differs under faults", name, i)
		}
		if faulty.CoreSupports[i] != clean.CoreSupports[i] {
			t.Errorf("%s: core %d support %d vs %d", name, i, faulty.CoreSupports[i], clean.CoreSupports[i])
		}
	}
	if fmt.Sprint(faulty.Signatures) != fmt.Sprint(clean.Signatures) {
		t.Errorf("%s: tightened signatures differ under faults", name)
	}
	fc, cc := faulty.Stats.Counters, clean.Stats.Counters
	fc.TaskRetries, cc.TaskRetries = 0, 0
	if fc != cc {
		t.Errorf("%s: counters differ under faults:\n got %+v\nwant %+v", name, fc, cc)
	}
	if faulty.Stats.Jobs != clean.Stats.Jobs {
		t.Errorf("%s: job count %d vs %d", name, faulty.Stats.Jobs, clean.Stats.Jobs)
	}
}

// TestChaosLightPipeline runs the full P3C+-MR-Light pipeline under the
// fault-plan sweep at two parallelism levels and asserts bit-identical
// results versus the fault-free baseline. Together with the determinism
// tests, this turns PR 1's deterministic shuffle into the oracle for the
// engine's entire fault path: any leak of a failed attempt's pairs or
// counters, any reducer mutating its (retried) shuffled input, any
// scheduling dependence, shows up as a diff.
func TestChaosLightPipeline(t *testing.T) {
	data, _ := genData(t, 3000, 15, 3, 0.1, 77)
	params := LightParams()
	params.NumSplits = 12

	clean, err := Run(mr.NewEngine(mr.Config{Parallelism: 4, NumReducers: 3}), data, params)
	if err != nil {
		t.Fatal(err)
	}
	var retries int64
	for _, pc := range chaosPlans {
		for _, par := range []int{1, 8} {
			name := fmt.Sprintf("light/%s/par=%d", pc.name, par)
			engine := mr.NewEngine(mr.Config{Parallelism: par, NumReducers: 3, Faults: pc.plan, MaxAttempts: 12})
			faulty, err := Run(engine, data, params)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertChaosRun(t, name, clean, faulty)
			retries += faulty.Stats.Counters.TaskRetries
			if pc.name == "reduce-only" && engine.TotalWasted().ReduceInputKeys == 0 {
				t.Errorf("%s: no reduce-side work was wasted — plan not exercising reduce retries", name)
			}
		}
	}
	if retries == 0 {
		t.Fatal("chaos sweep injected no retries — harness exercised nothing")
	}
}

// TestChaosFullPipeline covers the EM-refinement and outlier-detection
// phases, whose floating-point reducers make them the most sensitive to a
// retry replaying or leaking partial work.
func TestChaosFullPipeline(t *testing.T) {
	data, _ := genData(t, 1500, 10, 2, 0.05, 99)
	params := NewParams()
	params.NumSplits = 8

	clean, err := Run(mr.NewEngine(mr.Config{Parallelism: 4, NumReducers: 3}), data, params)
	if err != nil {
		t.Fatal(err)
	}
	var retries int64
	for _, pc := range chaosPlans {
		for _, par := range []int{1, 8} {
			name := fmt.Sprintf("full/%s/par=%d", pc.name, par)
			engine := mr.NewEngine(mr.Config{Parallelism: par, NumReducers: 3, Faults: pc.plan, MaxAttempts: 12})
			faulty, err := Run(engine, data, params)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertChaosRun(t, name, clean, faulty)
			retries += faulty.Stats.Counters.TaskRetries
		}
	}
	if retries == 0 {
		t.Fatal("chaos sweep injected no retries — harness exercised nothing")
	}
}

// TestChaosPoisonedPoolsPipeline runs the Light pipeline with pool
// poisoning enabled under a mixed fault plan: every map/shuffle/reduce
// buffer the engine recycles is overwritten with sentinel garbage at return
// time, so a task attempt that reads a buffer it no longer owns — the bug
// class pooling introduces — corrupts labels, cores, or signatures visibly
// instead of passing on conveniently-zeroed memory. Bit-identity against
// the clean un-poisoned baseline at parallelism {1,8} is the oracle.
func TestChaosPoisonedPoolsPipeline(t *testing.T) {
	data, _ := genData(t, 2000, 12, 3, 0.1, 77)
	params := LightParams()
	params.NumSplits = 10

	clean, err := Run(mr.NewEngine(mr.Config{Parallelism: 4, NumReducers: 3}), data, params)
	if err != nil {
		t.Fatal(err)
	}
	plan := mr.RateFaultPlan{MapRate: 0.25, ReduceRate: 0.3,
		StragglerRate: 0.2, StragglerSeconds: 3, Seed: 211}
	var retries int64
	for _, par := range []int{1, 8} {
		name := fmt.Sprintf("poisoned/par=%d", par)
		engine := mr.NewEngine(mr.Config{Parallelism: par, NumReducers: 3,
			Faults: plan, MaxAttempts: 12, DebugPoisonPools: true})
		faulty, err := Run(engine, data, params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertChaosRun(t, name, clean, faulty)
		retries += faulty.Stats.Counters.TaskRetries
	}
	if retries == 0 {
		t.Fatal("poisoned-pool sweep injected no retries — harness exercised nothing")
	}
}

// TestChaosChargesSimulatedTime: under a cost model, a faulty pipeline run
// must model strictly more cluster time than the fault-free run (retries and
// stragglers burn slots) while producing the same Jobs count and counters.
func TestChaosChargesSimulatedTime(t *testing.T) {
	data, _ := genData(t, 2000, 12, 3, 0.1, 55)
	params := LightParams()
	params.NumSplits = 8

	clean, err := Run(mr.NewEngine(mr.Config{Parallelism: 4, Cost: mr.DefaultCostModel()}), data, params)
	if err != nil {
		t.Fatal(err)
	}
	plan := mr.RateFaultPlan{MapRate: 0.3, ReduceRate: 0.3, StragglerRate: 0.3, StragglerSeconds: 11, Seed: 5}
	faulty, err := Run(mr.NewEngine(mr.Config{Parallelism: 4, Cost: mr.DefaultCostModel(),
		Faults: plan, MaxAttempts: 12}), data, params)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Stats.Counters.TaskRetries == 0 {
		t.Fatal("no retries injected")
	}
	if faulty.Stats.SimulatedSeconds <= clean.Stats.SimulatedSeconds {
		t.Errorf("faulty run modeled at %g s, not above fault-free %g s",
			faulty.Stats.SimulatedSeconds, clean.Stats.SimulatedSeconds)
	}
	assertChaosRun(t, "cost", clean, faulty)
}
