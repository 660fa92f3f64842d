package main

import (
	"strings"
	"testing"

	"p3cmr/internal/obs"
)

// TestClassifyAndTimeline pins the straggler classification and the timeline
// lanes on a synthetic two-worker trace: one attempt is slow because its
// input is skewed, one is slow on an idle (starved) worker.
func TestClassifyAndTimeline(t *testing.T) {
	trace := strings.TrimSpace(`
{"ev":"begin","ts":0,"id":1,"kind":"run","name":"r"}
{"ev":"begin","ts":0,"id":2,"parent":1,"kind":"job","name":"j"}
{"ev":"begin","ts":0,"id":3,"parent":2,"kind":"task","name":"j","task":0,"attempt":1,"phase":"map"}
{"ev":"end","ts":1,"id":3,"kind":"task","name":"j","task":0,"attempt":1,"phase":"map","outcome":"ok","real_s":1,"worker":"w1","counters":{"mapIn":100}}
{"ev":"begin","ts":0,"id":4,"parent":2,"kind":"task","name":"j","task":1,"attempt":1,"phase":"map"}
{"ev":"end","ts":1,"id":4,"kind":"task","name":"j","task":1,"attempt":1,"phase":"map","outcome":"ok","real_s":1,"worker":"w2","counters":{"mapIn":100}}
{"ev":"begin","ts":1,"id":5,"parent":2,"kind":"task","name":"j","task":2,"attempt":1,"phase":"map"}
{"ev":"end","ts":5,"id":5,"kind":"task","name":"j","task":2,"attempt":1,"phase":"map","outcome":"ok","real_s":4,"worker":"w1","counters":{"mapIn":400}}
{"ev":"begin","ts":1,"id":6,"parent":2,"kind":"task","name":"j","task":3,"attempt":1,"phase":"map"}
{"ev":"end","ts":5,"id":6,"kind":"task","name":"j","task":3,"attempt":1,"phase":"map","outcome":"ok","real_s":4,"worker":"w2","counters":{"mapIn":100}}
{"ev":"point","ts":1,"span":5,"point":"sample","worker":"w1","sample":{"cpu_s":1.0}}
{"ev":"point","ts":5,"span":5,"point":"sample","worker":"w1","sample":{"cpu_s":4.8}}
{"ev":"point","ts":1,"span":6,"point":"sample","worker":"w2","sample":{"cpu_s":1.0}}
{"ev":"point","ts":5,"span":6,"point":"sample","worker":"w2","sample":{"cpu_s":1.4}}
{"ev":"end","ts":5,"id":2,"kind":"job","name":"j","outcome":"ok","real_s":5}
{"ev":"end","ts":5,"id":1,"kind":"run","name":"r","outcome":"ok","real_s":5}
`) + "\n"

	forest, err := obs.ReadJSONL(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	a := forest.Analyze(5)
	run := a.Runs[0]

	if len(run.Classified) != 2 {
		t.Fatalf("classified %d attempts, want 2: %+v", len(run.Classified), run.Classified)
	}
	byTask := make(map[string]obs.ClassifyRow)
	for _, c := range run.Classified {
		byTask[c.Task] = c
	}
	// task 2.1: 400 records vs median 100 → skewed (worker w1 was busy,
	// util ~0.95, but input ratio dominates).
	if c := byTask["2.1"]; c.Class != "skewed" || c.Worker != "w1" {
		t.Errorf("task 2.1 classified %+v, want skewed on w1", c)
	}
	// task 3.1: median input but worker w2's CPU barely moved → starved.
	if c := byTask["3.1"]; c.Class != "starved" || c.Worker != "w2" {
		t.Errorf("task 3.1 classified %+v, want starved on w2", c)
	}

	if len(run.Timeline) != 2 {
		t.Fatalf("timeline has %d lanes, want 2", len(run.Timeline))
	}
	if run.Timeline[0].Worker != "w1" || run.Timeline[1].Worker != "w2" {
		t.Errorf("timeline lanes not sorted by worker: %+v", run.Timeline)
	}
	for _, lane := range run.Timeline {
		if len(lane.Intervals) != 2 {
			t.Errorf("lane %s has %d intervals, want 2", lane.Worker, len(lane.Intervals))
		}
		for i := 1; i < len(lane.Intervals); i++ {
			if lane.Intervals[i].StartS < lane.Intervals[i-1].StartS {
				t.Errorf("lane %s intervals not in start order", lane.Worker)
			}
		}
	}

	// The text renderer with the timeline on must include the new sections.
	var sb strings.Builder
	if err := obs.WriteText(&sb, a, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"worker telemetry", "stragglers classified", "timeline", "crit"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q section:\n%s", want, out)
		}
	}
}
