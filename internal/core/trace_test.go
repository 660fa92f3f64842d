package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

// TestPipelineTraceStructure: a traced pipeline run must produce one run
// span at the root, phase spans under it (in execution order), every job
// span under a phase span, and a structurally valid stream overall — for
// both the Light variant and the full MVB variant (EM + outlier detection).
func TestPipelineTraceStructure(t *testing.T) {
	data, _ := genData(t, 1500, 10, 2, 0.05, 31)
	variants := []struct {
		name       string
		params     Params
		wantPhases []string
	}{
		{"light", LightParams(), []string{
			"histograms", "core-generation", "redundancy-filter",
			"light-membership", "attribute-inspection",
		}},
		{"mvb", NewParams(), []string{
			"histograms", "core-generation", "redundancy-filter",
			"em", "outlier-detection", "attribute-inspection",
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			mem := obs.NewMemTracer()
			engine := mr.NewEngine(mr.Config{Parallelism: 4, Tracer: mem, Cost: mr.DefaultCostModel()})
			res, err := Run(engine, data, v.params)
			if err != nil {
				t.Fatal(err)
			}
			if err := mem.Validate(); err != nil {
				t.Fatalf("invalid span stream: %v", err)
			}

			runs := mem.SpansOf(obs.KindRun)
			if len(runs) != 1 || runs[0].Parent != 0 || runs[0].Name != "p3c-pipeline" {
				t.Fatalf("run spans = %+v, want one root p3c-pipeline span", runs)
			}
			runID := runs[0].ID

			phaseIDs := make(map[obs.SpanID]string)
			var phaseOrder []string
			for _, s := range mem.SpansOf(obs.KindPhase) {
				if s.Parent != runID {
					t.Errorf("phase %q not parented by the run span", s.Name)
				}
				phaseIDs[s.ID] = s.Name
				phaseOrder = append(phaseOrder, s.Name)
			}
			if fmt.Sprint(phaseOrder) != fmt.Sprint(v.wantPhases) {
				t.Errorf("phase order = %v, want %v", phaseOrder, v.wantPhases)
			}

			jobSpans := mem.SpansOf(obs.KindJob)
			if len(jobSpans) == 0 {
				t.Fatal("no job spans recorded")
			}
			for _, s := range jobSpans {
				if _, ok := phaseIDs[s.Parent]; !ok {
					t.Errorf("job span %q (parent %d) not nested in a phase span", s.Name, s.Parent)
				}
			}
			if len(jobSpans) != res.Stats.Jobs {
				t.Errorf("job spans = %d, Stats.Jobs = %d", len(jobSpans), res.Stats.Jobs)
			}

			// The run span's end must carry the pipeline's engine deltas.
			runEnd, ok := mem.EndOf(runID)
			if !ok {
				t.Fatal("run span never closed")
			}
			if runEnd.Counters != res.Stats.Counters {
				t.Errorf("run span counters %+v != Stats.Counters %+v", runEnd.Counters, res.Stats.Counters)
			}
			if runEnd.SimulatedSeconds != res.Stats.SimulatedSeconds {
				t.Errorf("run span sim s = %g, Stats = %g", runEnd.SimulatedSeconds, res.Stats.SimulatedSeconds)
			}

			// Phase counter deltas must sum to the run's counters: every job
			// belongs to exactly one phase.
			var phaseSum mr.Counters
			for _, e := range mem.Ends() {
				if e.Kind == obs.KindPhase {
					phaseSum.Add(e.Counters)
				}
			}
			if phaseSum != runEnd.Counters {
				t.Errorf("phase counter deltas sum to %+v, run span has %+v", phaseSum, runEnd.Counters)
			}
		})
	}
}

// TestPipelineJobGraph pins the jobs each phase runs, Light and MVB, with
// and without AI proving, on data whose attribute inspection suggests
// intervals. Interval tightening runs no job: the attribute-inspection
// phase runs the histogram job, which folds the extrema, and ai-proving
// when proving is on.
func TestPipelineJobGraph(t *testing.T) {
	data, _ := genData(t, 1500, 10, 3, 0.1, 2)
	noProving := LightParams()
	noProving.UseAIProving = false
	front := map[string][]string{
		"histograms":        {"histograms"},
		"core-generation":   {"prove-candidates"},
		"redundancy-filter": {"redundancy-uncovered"},
	}
	for _, v := range []struct {
		name   string
		params Params
		want   map[string][]string
	}{
		{"light", LightParams(), map[string][]string{
			"light-membership":     {"light-membership"},
			"attribute-inspection": {"attribute-inspection-histograms", "ai-proving"},
		}},
		{"light-no-proving", noProving, map[string][]string{
			"light-membership":     {"light-membership"},
			"attribute-inspection": {"attribute-inspection-histograms"},
		}},
		{"mvb", NewParams(), map[string][]string{
			"em":                   {"em-init-means", "em-moments-0", "em-moments-1", "em-moments-2", "em-moments-3", "em-moments-4", "em-moments-5"},
			"outlier-detection":    {"mvb-ball", "mvb-mean", "outlier-detect"},
			"attribute-inspection": {"attribute-inspection-histograms", "ai-proving"},
		}},
	} {
		t.Run(v.name, func(t *testing.T) {
			mem := obs.NewMemTracer()
			if _, err := Run(mr.NewEngine(mr.Config{Parallelism: 2, Tracer: mem}), data, v.params); err != nil {
				t.Fatal(err)
			}
			phases := make(map[obs.SpanID]string)
			for _, s := range mem.SpansOf(obs.KindPhase) {
				phases[s.ID] = s.Name
			}
			got := make(map[string][]string)
			for _, s := range mem.SpansOf(obs.KindJob) {
				ph := phases[s.Parent]
				if !slices.Contains(got[ph], s.Name) {
					got[ph] = append(got[ph], s.Name)
				}
			}
			want := maps.Clone(v.want)
			maps.Copy(want, front)
			if !maps.EqualFunc(got, want, slices.Equal) {
				t.Errorf("jobs by phase:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestRescueJobGraph pins the redundancy filter's passes, Light and MVB,
// on data whose rescue takes five rounds, of which rounds zero and one
// accept a core: redundancy-uncovered runs once for round zero, once per
// later round that accepts a core and once for the final run of rounds
// that accept none, three times in all, as the round-by-round loop's
// accepting rounds predict, and the phase publishes the round count.
func TestRescueJobGraph(t *testing.T) {
	data, _ := genData(t, 10000, 20, 4, 0.1, 3)
	for _, v := range []struct {
		name   string
		params Params
	}{{"light", LightParams()}, {"mvb", NewParams()}} {
		t.Run(v.name, func(t *testing.T) {
			mem := obs.NewMemTracer()
			if _, err := Run(mr.NewEngine(mr.Config{Parallelism: 2, Tracer: mem}), data, v.params); err != nil {
				t.Fatal(err)
			}
			var phase obs.SpanID
			for _, s := range mem.SpansOf(obs.KindPhase) {
				if s.Name == "redundancy-filter" {
					phase = s.ID
				}
			}
			passes := 0
			for _, s := range mem.SpansOf(obs.KindJob) {
				if s.Parent == phase {
					if s.Name != "redundancy-uncovered" {
						t.Errorf("redundancy filter ran %s", s.Name)
					}
					passes++
				}
			}
			rounds := -1
			for _, pt := range mem.Points() {
				if pt.Span == phase && pt.Kind == obs.PointMetric && pt.Name == "quality_rescue_rounds" {
					rounds = int(pt.Value)
				}
			}

			p, gen, proven := provenCores(t, data, v.params)
			ref := roundByRound(t, p, gen, proven)
			want := len(ref.accepting)
			if ref.accepting[want-1] < ref.rounds-1 {
				want++
			}
			if rounds != ref.rounds || passes != want {
				t.Errorf("%d rounds in %d passes; round by round: %d rounds accepting at %v, so %d passes", rounds, passes, ref.rounds, ref.accepting, want)
			}
			if rounds != 5 || passes != 3 {
				t.Errorf("%d rounds in %d passes; the fixture wants 5 in 3", rounds, passes)
			}
		})
	}
}

// TestPipelineChaosTraceIdentity: the full-pipeline analogue of the engine
// oracle — enabling tracing must not change labels, signatures, counters or
// modeled seconds of a chaos run at any parallelism.
func TestPipelineChaosTraceIdentity(t *testing.T) {
	data, _ := genData(t, 2000, 12, 2, 0.1, 53)
	params := LightParams()
	params.NumSplits = 8
	plan := mr.RateFaultPlan{MapRate: 0.3, ReduceRate: 0.3,
		StragglerRate: 0.4, StragglerSeconds: 5, Seed: 211}

	for _, par := range []int{1, 8} {
		cfg := mr.Config{Parallelism: par, NumReducers: 3, Faults: plan,
			MaxAttempts: 12, Cost: mr.DefaultCostModel()}
		untraced, err := Run(mr.NewEngine(cfg), data, params)
		if err != nil {
			t.Fatalf("par=%d untraced: %v", par, err)
		}
		tcfg := cfg
		mem := obs.NewMemTracer()
		tcfg.Tracer = mem
		traced, err := Run(mr.NewEngine(tcfg), data, params)
		if err != nil {
			t.Fatalf("par=%d traced: %v", par, err)
		}
		name := fmt.Sprintf("traced/par=%d", par)
		assertChaosRun(t, name, untraced, traced)
		if traced.Stats.Counters != untraced.Stats.Counters {
			t.Errorf("%s: counters differ (including retries):\n traced %+v\nuntraced %+v",
				name, traced.Stats.Counters, untraced.Stats.Counters)
		}
		if traced.Stats.SimulatedSeconds != untraced.Stats.SimulatedSeconds {
			t.Errorf("%s: simulated seconds %g vs %g", name,
				traced.Stats.SimulatedSeconds, untraced.Stats.SimulatedSeconds)
		}
		if err := mem.Validate(); err != nil {
			t.Errorf("%s: invalid span stream: %v", name, err)
		}
		if traced.Stats.Counters.TaskRetries == 0 {
			t.Errorf("%s: no retries injected — identity proved nothing", name)
		}
	}
}

// TestMetricOffIsFree pins pipeline.metric's contract: with tracing and
// metrics off it allocates nothing and does not panic, and with both on the
// gauge keeps its p3c_ name while the point carries the bare one.
func TestMetricOffIsFree(t *testing.T) {
	p := &pipeline{engine: mr.NewEngine(mr.Config{Parallelism: 1})}
	allocs := testing.AllocsPerRun(100, func() {
		p.metric(p.runSpan, "p3c_quality_cores", 3)
	})
	if allocs != 0 {
		t.Fatalf("metric with tracing and metrics off: %v allocs, want 0", allocs)
	}

	mem, reg := obs.NewMemTracer(), obs.NewRegistry()
	p = &pipeline{engine: mr.NewEngine(mr.Config{Parallelism: 1, Tracer: mem, Metrics: reg}), tracer: mem}
	p.metric(p.runSpan, "p3c_quality_cores", 3)
	if got := reg.Snapshot().Gauges["p3c_quality_cores"]; got != 3 {
		t.Errorf("gauge p3c_quality_cores = %v, want 3", got)
	}
	if pts := mem.Points(); len(pts) != 1 || pts[0].Name != "quality_cores" || pts[0].Value != 3 {
		t.Errorf("points = %+v, want one quality_cores point of 3", pts)
	}
}
