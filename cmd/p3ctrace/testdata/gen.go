//go:build ignore

// Command gen writes the fixture traces that p3ctrace's golden tests read
// into the current directory; run it from this one:
//
//	cd cmd/p3ctrace/testdata && go run gen.go
//
// chaos.jsonl holds in-process P3C+-MR (MVB) pipeline runs traced into one
// file: the first survives a seeded fault and straggler plan and emits EM
// convergence points; the rest run with a single attempt per task, so
// their first injected fault fails the run and cancels the sibling tasks.
// multiproc.jsonl is one P3C+-MR-Light run on worker processes with the
// smallest spill budget, seeded faults and stragglers, and a fast resource
// sampler, so it carries worker step spans and sample points.
//
// The traces record real wall-clock readings, so regenerating them changes
// every golden file; run the golden test with -update afterwards.
package main

import (
	"fmt"
	"os"
	"time"

	"p3cmr/internal/core"
	"p3cmr/internal/dataset"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

func main() {
	mr.MaybeWorkerProcess()
	data, _, err := dataset.Generate(dataset.GenConfig{N: 3000, Dim: 8, Clusters: 3,
		NoiseFraction: 0.1, MaxClusterDims: 3, Seed: 41})
	if err != nil {
		fatal(err)
	}

	fixture("chaos.jsonl", func(tr obs.Tracer) {
		params := core.NewParams()
		params.NumSplits = 6
		plan := mr.RateFaultPlan{MapRate: 0.15, ReduceRate: 0.15,
			StragglerRate: 0.2, StragglerSeconds: 3, Seed: 17}
		ok := mr.NewEngine(mr.Config{Parallelism: 3, NumReducers: 2, Faults: plan,
			MaxAttempts: 12, Cost: mr.DefaultCostModel(), Tracer: tr})
		if _, err := core.Run(ok, data, params); err != nil {
			fatal(err)
		}
		// Whether a sibling is cancelled mid-attempt (outcome cancelled) or
		// before its first attempt (a cancel point) depends on scheduling,
		// so failing runs repeat until the trace holds both.
		plan.MapRate, plan.Seed = 0.5, 4
		params.NumSplits = 12
		var seen cancelSeen
		for i := 0; i < 50 && !(seen.points > 0 && seen.attempts > 0); i++ {
			failing := mr.NewEngine(mr.Config{Parallelism: 2, NumReducers: 2, Faults: plan,
				MaxAttempts: 1, Cost: mr.DefaultCostModel(), Tracer: obs.Multi(tr, &seen)})
			if _, err := core.Run(failing, data, params); err == nil {
				fatal(fmt.Errorf("the single-attempt run was meant to fail"))
			}
		}
	})

	fixture("multiproc.jsonl", func(tr obs.Tracer) {
		params := core.LightParams()
		params.NumSplits = 6
		dir, err := os.MkdirTemp("", "p3ctrace-fixture-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		engine := mr.NewEngine(mr.Config{Parallelism: 2, NumReducers: 2,
			Backend: "multiprocess", SpillDir: dir, SpillThresholdBytes: 1,
			Faults: mr.RateFaultPlan{MapRate: 0.2, ReduceRate: 0.2,
				StragglerRate: 0.2, StragglerSeconds: 2, Seed: 5},
			MaxAttempts: 12, Cost: mr.DefaultCostModel(), Tracer: tr,
			TelemetrySample: 2 * time.Millisecond})
		defer engine.Close()
		if _, err := core.Run(engine, data, params); err != nil {
			fatal(err)
		}
	})
}

// cancelSeen counts the two shapes of sibling cancellation.
type cancelSeen struct{ points, attempts int }

func (c *cancelSeen) Begin(obs.Start) {}

func (c *cancelSeen) End(e obs.End) {
	if e.Outcome == obs.OutcomeCancelled {
		c.attempts++
	}
}

func (c *cancelSeen) Point(p obs.Point) {
	if p.Kind == obs.PointCancel {
		c.points++
	}
}

func fixture(name string, run func(obs.Tracer)) {
	f, err := os.Create(name)
	if err != nil {
		fatal(err)
	}
	tr := obs.NewJSONLTracer(f)
	run(tr)
	if err := tr.Close(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gen:", err)
	os.Exit(1)
}
