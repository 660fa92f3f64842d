package obs

import (
	"fmt"
	"testing"
)

// playRun feeds one complete synthetic run through p: two phases with one
// job each, the first job running two tasks (one of which faults once).
// Returns the run span ID.
func playRun(p *Forest, name string, outcome Outcome) SpanID {
	run := NewSpanID()
	p.Begin(Start{ID: run, Kind: KindRun, Name: name})

	ph1 := NewSpanID()
	p.Begin(Start{ID: ph1, Parent: run, Kind: KindPhase, Name: "histograms"})
	job := NewSpanID()
	p.Begin(Start{ID: job, Parent: ph1, Kind: KindJob, Name: "hist-job"})

	t1 := NewSpanID()
	p.Begin(Start{ID: t1, Parent: job, Kind: KindTask, Name: "hist-job", Task: 0, Attempt: 0, Phase: "map"})
	p.Point(Point{Span: t1, Kind: PointFault, Name: "hist-job", Task: 0, Phase: "map"})
	p.End(End{ID: t1, Kind: KindTask, Name: "hist-job", Task: 0, Phase: "map", Outcome: OutcomeFault, RealSeconds: 0.01})

	t2 := NewSpanID()
	p.Begin(Start{ID: t2, Parent: job, Kind: KindTask, Name: "hist-job", Task: 0, Attempt: 1, Phase: "map"})
	p.End(End{ID: t2, Kind: KindTask, Name: "hist-job", Task: 0, Attempt: 1, Phase: "map", Outcome: OutcomeOK, RealSeconds: 0.02})

	// Shuffle pseudo-task: must not count toward task totals.
	ts := NewSpanID()
	p.Begin(Start{ID: ts, Parent: job, Kind: KindTask, Name: "hist-job", Task: -1, Phase: "shuffle"})
	p.End(End{ID: ts, Kind: KindTask, Name: "hist-job", Task: -1, Phase: "shuffle", Outcome: OutcomeOK})

	p.End(End{ID: job, Kind: KindJob, Name: "hist-job", Outcome: OutcomeOK,
		Counters: Counters{MapInputRecords: 100, ReduceInputVals: 40}, Retries: 1})
	p.End(End{ID: ph1, Kind: KindPhase, Name: "histograms", Outcome: OutcomeOK, RealSeconds: 2})

	ph2 := NewSpanID()
	p.Begin(Start{ID: ph2, Parent: run, Kind: KindPhase, Name: "core-generation"})
	p.End(End{ID: ph2, Kind: KindPhase, Name: "core-generation", Outcome: OutcomeOK, RealSeconds: 6})

	p.End(End{ID: run, Kind: KindRun, Name: name, Outcome: outcome, RealSeconds: 8})
	return run
}

func TestProgressCountsAndRetention(t *testing.T) {
	p := NewForest()
	run := playRun(p, "p3c-pipeline", OutcomeOK)

	snaps := p.Runs()
	if len(snaps) != 1 {
		t.Fatalf("Snapshot() returned %d runs, want 1", len(snaps))
	}
	s := snaps[0]
	if s.ID != int64(run) || s.Active || s.Outcome != "ok" {
		t.Fatalf("completed run snapshot = %+v", s)
	}
	if s.Jobs != 1 || s.JobsDone != 1 {
		t.Errorf("jobs = %d/%d, want 1/1", s.JobsDone, s.Jobs)
	}
	if s.Tasks != 2 || s.TasksDone != 2 {
		t.Errorf("tasks = %d/%d, want 2/2 (shuffle excluded)", s.TasksDone, s.Tasks)
	}
	if s.Faults != 1 || s.Retries != 1 {
		t.Errorf("faults=%d retries=%d, want 1/1", s.Faults, s.Retries)
	}
	if s.Records != 140 {
		t.Errorf("records = %d, want 140", s.Records)
	}
	if s.ElapsedSeconds != 8 {
		t.Errorf("elapsed = %g, want the run End's 8", s.ElapsedSeconds)
	}
	if s.RecordsPerSec != 140.0/8 {
		t.Errorf("records/sec = %g, want 17.5", s.RecordsPerSec)
	}
	if len(s.Phases) != 2 || !s.Phases[0].Done || s.Phases[0].RealSeconds != 2 {
		t.Errorf("phases = %+v", s.Phases)
	}

	if _, ok := p.Run(int64(run)); !ok {
		t.Errorf("Run(%d) not found after completion", run)
	}
	if _, ok := p.Run(99999999); ok {
		t.Errorf("Run(bogus) unexpectedly found")
	}

	// Retention: the forest keeps every run it has seen.
	const more = 40
	for i := 0; i < more; i++ {
		playRun(p, fmt.Sprintf("r%d", i), OutcomeOK)
	}
	if got := len(p.Runs()); got != more+1 {
		t.Errorf("forest reports %d runs, want all %d", got, more+1)
	}
	if _, ok := p.Run(int64(run)); !ok {
		t.Errorf("first run %d dropped after %d more completed", run, more)
	}
}

func TestProgressETA(t *testing.T) {
	p := NewForest()

	// No plan: ETA unknown.
	run := NewSpanID()
	p.Begin(Start{ID: run, Kind: KindRun, Name: "noplan"})
	if s, _ := p.Run(int64(run)); s.ETASeconds != -1 {
		t.Errorf("ETA with no plan = %g, want -1", s.ETASeconds)
	}
	p.End(End{ID: run, Kind: KindRun, Name: "noplan", Outcome: OutcomeError, Err: "boom"})

	// Plan-based: one of four planned phases finished.
	p.SetPhasePlan("planned", []string{"a", "b", "c", "d"})
	run2 := NewSpanID()
	p.Begin(Start{ID: run2, Kind: KindRun, Name: "planned"})
	ph := NewSpanID()
	p.Begin(Start{ID: ph, Parent: run2, Kind: KindPhase, Name: "a"})
	p.End(End{ID: ph, Kind: KindPhase, Name: "a", Outcome: OutcomeOK, RealSeconds: 1})
	s, ok := p.Run(int64(run2))
	if !ok || !s.Active {
		t.Fatalf("live run not found: %+v", s)
	}
	if s.ETASeconds < 0 {
		t.Errorf("plan-based ETA = %g, want >= 0", s.ETASeconds)
	}
	p.End(End{ID: run2, Kind: KindRun, Name: "planned", Outcome: OutcomeOK, RealSeconds: 4})
}

func TestProgressDetachedSpans(t *testing.T) {
	p := NewForest()
	// A job traced without any enclosing run span lands in the synthetic
	// detached bucket.
	job := NewSpanID()
	p.Begin(Start{ID: job, Kind: KindJob, Name: "standalone"})
	tk := NewSpanID()
	p.Begin(Start{ID: tk, Parent: job, Kind: KindTask, Name: "standalone", Task: 0, Phase: "map"})
	p.End(End{ID: tk, Kind: KindTask, Name: "standalone", Task: 0, Phase: "map", Outcome: OutcomeOK})
	p.End(End{ID: job, Kind: KindJob, Name: "standalone", Outcome: OutcomeOK,
		Counters: Counters{MapInputRecords: 7}})

	snaps := p.Runs()
	if len(snaps) != 1 {
		t.Fatalf("Snapshot() returned %d runs, want 1 detached bucket", len(snaps))
	}
	s := snaps[0]
	if s.ID != int64(detachedRunID) || s.Name != "(detached)" || !s.Active {
		t.Fatalf("detached bucket = %+v", s)
	}
	if s.Jobs != 1 || s.JobsDone != 1 || s.Tasks != 1 || s.TasksDone != 1 {
		t.Errorf("detached counts = %+v", s)
	}
	if s.Records != 7 {
		t.Errorf("detached records = %d, want 7", s.Records)
	}
}
