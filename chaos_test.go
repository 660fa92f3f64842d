package p3cmr

import (
	"bytes"
	"strings"
	"testing"

	"p3cmr/internal/dataset"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

// TestChaosJSONResultBitIdentical is the end-to-end oracle of the chaos
// harness: the serialized JSON result of a public-API Run — cluster members,
// tightened intervals, attribute sets, outlier count, job count — must be
// byte-for-byte identical between a fault-free engine and engines sweeping
// fault plans and parallelism levels. Downstream tooling that consumes
// WriteJSON output can therefore never observe whether the (modeled)
// cluster was lossy.
func TestChaosJSONResultBitIdentical(t *testing.T) {
	data, _ := genAPITestData(t, 2500, 7)
	data.Normalize()

	render := func(engine *mr.Engine) []byte {
		t.Helper()
		res, err := Run(data, Config{Algorithm: P3CPlusMRLight, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf, P3CPlusMRLight, true); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	baseline := render(mr.NewEngine(mr.Config{Parallelism: 4}))
	plans := []struct {
		name string
		plan mr.FaultPlan
	}{
		{"map-only", mr.RateFaultPlan{MapRate: 0.4, Seed: 19}},
		{"reduce-only", mr.RateFaultPlan{ReduceRate: 0.45, Seed: 11}},
		{"mixed-stragglers", mr.RateFaultPlan{MapRate: 0.25, ReduceRate: 0.25,
			StragglerRate: 0.5, StragglerSeconds: 9, Seed: 29}},
	}
	for _, pc := range plans {
		for _, par := range []int{1, 8} {
			engine := mr.NewEngine(mr.Config{Parallelism: par, Faults: pc.plan, MaxAttempts: 12})
			got := render(engine)
			if !bytes.Equal(got, baseline) {
				t.Errorf("%s/par=%d: JSON result differs from fault-free baseline\n got: %s\nwant: %s",
					pc.name, par, got, baseline)
			}
			if engine.TotalCounters().TaskRetries == 0 {
				t.Errorf("%s/par=%d: no retries injected — oracle exercised nothing", pc.name, par)
			}
		}
	}
}

// TestChaosCountingJobsJSONBitIdentical aims faults at the jobs that read
// a split's memo — the cached interval bitmaps (prove-candidates,
// redundancy-uncovered, light-membership, bow-assign, em-init-means), the
// MVB jobs' shared assignment column (mvb-ball, mvb-mean, outlier-detect)
// or the label column of the job after them
// (attribute-inspection-histograms) — and at the
// em-moments jobs, which buffer rows into panels: the first map attempt
// of every such task fails — before its first record, mid-split, or after
// its last record but before Cleanup — on every backend, for Light, MVB
// and BoW. The WriteJSON output must equal the fault-free in-process
// run's, so a failed attempt can leave nothing behind in a split's memo or
// a panel.
func TestChaosCountingJobsJSONBitIdentical(t *testing.T) {
	faultedJobs := map[string]bool{
		"prove-candidates": true, "redundancy-uncovered": true, "light-membership": true, "em-init-means": true,
		"mvb-ball": true, "mvb-mean": true, "outlier-detect": true,
		"attribute-inspection-histograms": true, "bow-assign": true,
	}
	data, _ := genAPITestData(t, 2000, 6)
	data.Normalize()
	plan := mr.FaultPlanFunc(func(job string, phase mr.TaskPhase, task, attempt int) mr.FaultDecision {
		switch {
		case phase != mr.PhaseMap || attempt > 0:
			return mr.FaultDecision{}
		case !faultedJobs[job] && !strings.HasPrefix(job, "em-moments-"):
			return mr.FaultDecision{}
		}
		return mr.FaultDecision{Fail: true, FailFrac: float64(task%3) / 2}
	})
	algs := []Algorithm{P3CPlusMRLight, P3CPlusMR, BoWLight}
	if raceDetectorEnabled {
		algs = algs[:1]
	}
	for _, alg := range algs {
		baseline := renderJSON(t, data, alg, mr.NewEngine(mr.Config{Parallelism: 4}))
		for _, backend := range mr.BackendNames() {
			if backend == "multiprocess" && raceDetectorEnabled {
				continue
			}
			engine := mr.NewEngine(mr.Config{Backend: backend, Parallelism: 4, SpillDir: t.TempDir(), Faults: plan, MaxAttempts: 2})
			if got := renderJSON(t, data, alg, engine); !bytes.Equal(got, baseline) {
				t.Errorf("%s/%s: JSON result differs from the fault-free in-process run", alg, backend)
			}
			if engine.TotalCounters().TaskRetries == 0 {
				t.Errorf("%s/%s: no retries injected — oracle exercised nothing", alg, backend)
			}
		}
	}
}

// TestChaosSpeculatedRescueJSONBitIdentical runs a redundancy rescue whose
// speculated chain is cut short on every backend under faults: on this
// data the rescue takes five rounds, rounds zero and one accept a core, so
// the chain counted after round zero is dropped after round one and the
// filter runs three redundancy-uncovered passes. The first map attempt of
// every pass's tasks fails, before its first record, mid-split or before
// Cleanup, and the WriteJSON output of Light and MVB must equal the
// fault-free in-process run's.
func TestChaosSpeculatedRescueJSONBitIdentical(t *testing.T) {
	data, _, err := dataset.Generate(dataset.GenConfig{N: 10000, Dim: 20, Clusters: 4, NoiseFraction: 0.1, Seed: 3, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := mr.FaultPlanFunc(func(job string, phase mr.TaskPhase, task, attempt int) mr.FaultDecision {
		if job != "redundancy-uncovered" || phase != mr.PhaseMap || attempt > 0 {
			return mr.FaultDecision{}
		}
		return mr.FaultDecision{Fail: true, FailFrac: float64(task%3) / 2}
	})
	algs := []Algorithm{P3CPlusMRLight, P3CPlusMR}
	if raceDetectorEnabled {
		algs = algs[:1]
	}
	for _, alg := range algs {
		baseline := renderJSON(t, data, alg, mr.NewEngine(mr.Config{Parallelism: 4}))
		for _, backend := range mr.BackendNames() {
			if backend == "multiprocess" && raceDetectorEnabled {
				continue
			}
			trace := obs.NewForest()
			engine := mr.NewEngine(mr.Config{Backend: backend, Parallelism: 4, SpillDir: t.TempDir(), Faults: plan, MaxAttempts: 2, Tracer: trace})
			if got := renderJSON(t, data, alg, engine); !bytes.Equal(got, baseline) {
				t.Errorf("%s/%s: JSON result differs from the fault-free in-process run", alg, backend)
			}
			if engine.TotalCounters().TaskRetries == 0 {
				t.Errorf("%s/%s: no retries injected — oracle exercised nothing", alg, backend)
			}
			rounds, passes := metricValue(trace, "quality_rescue_rounds"), jobRuns(trace, "redundancy-uncovered")
			if rounds != 5 || passes != 3 {
				t.Errorf("%s/%s: %v rescue rounds in %d passes, want 5 in 3", alg, backend, rounds, passes)
			}
		}
	}
}

// TestChaosSpeculatedJoinJSONBitIdentical runs the deep lattice of
// deepLattice, where three candidate-generation jobs join level 1 and the
// unproven levels collected after it and the second proving job carries
// its top level's join, on every backend under faults: the first map
// attempt of every prove-candidates and candidate-generation task fails,
// before its first record, mid-split or before Cleanup, so every task's
// join share comes from a retry. The WriteJSON output must equal the
// fault-free in-process run's.
func TestChaosSpeculatedJoinJSONBitIdentical(t *testing.T) {
	data, cfg := deepLattice(t)
	plan := mr.FaultPlanFunc(func(job string, phase mr.TaskPhase, task, attempt int) mr.FaultDecision {
		if (job != "prove-candidates" && job != "candidate-generation") || phase != mr.PhaseMap || attempt > 0 {
			return mr.FaultDecision{}
		}
		return mr.FaultDecision{Fail: true, FailFrac: float64(task%3) / 2}
	})
	baseline := renderConfigJSON(t, data, cfg, mr.NewEngine(mr.Config{Parallelism: 4}))
	for _, backend := range mr.BackendNames() {
		if backend == "multiprocess" && raceDetectorEnabled {
			continue
		}
		trace := obs.NewForest()
		engine := mr.NewEngine(mr.Config{Backend: backend, Parallelism: 4, SpillDir: t.TempDir(), Faults: plan, MaxAttempts: 2, Tracer: trace})
		if got := renderConfigJSON(t, data, cfg, engine); !bytes.Equal(got, baseline) {
			t.Errorf("%s: JSON result differs from the fault-free in-process run", backend)
		}
		if engine.TotalCounters().TaskRetries == 0 {
			t.Errorf("%s: no retries injected — oracle exercised nothing", backend)
		}
		if gen, prove := jobRuns(trace, "candidate-generation"), jobRuns(trace, "prove-candidates"); gen != 3 || prove != 2 {
			t.Errorf("%s: %d candidate-generation and %d prove-candidates runs, want 3 and 2", backend, gen, prove)
		}
	}
}
