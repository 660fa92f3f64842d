package obs

import "testing"

// TestProgressInstantPhaseRate pins the sub-millisecond guard: a run whose
// wall time is essentially zero must report zero records/sec, not a
// counter-delta divided by a microsecond reading.
func TestProgressInstantPhaseRate(t *testing.T) {
	p := NewForest()
	run := NewSpanID()
	p.Begin(Start{ID: run, Kind: KindRun, Name: "instant"})
	job := NewSpanID()
	p.Begin(Start{ID: job, Parent: run, Kind: KindJob, Name: "j"})
	p.End(End{ID: job, Kind: KindJob, Name: "j",
		Counters: Counters{MapInputRecords: 1_000_000}})
	p.End(End{ID: run, Kind: KindRun, Name: "instant", RealSeconds: 2e-4})

	snap, ok := p.Run(int64(run))
	if !ok {
		t.Fatal("finished run not retained")
	}
	if snap.Records != 1_000_000 {
		t.Fatalf("Records = %d, want 1000000", snap.Records)
	}
	if snap.RecordsPerSec != 0 {
		t.Fatalf("instant run reports %v records/sec, want 0", snap.RecordsPerSec)
	}

	// A run with a measurable wall time still gets a throughput figure.
	run2 := NewSpanID()
	p.Begin(Start{ID: run2, Kind: KindRun, Name: "normal"})
	job2 := NewSpanID()
	p.Begin(Start{ID: job2, Parent: run2, Kind: KindJob, Name: "j"})
	p.End(End{ID: job2, Kind: KindJob, Name: "j",
		Counters: Counters{MapInputRecords: 500}})
	p.End(End{ID: run2, Kind: KindRun, Name: "normal", RealSeconds: 2})
	snap2, _ := p.Run(int64(run2))
	if snap2.RecordsPerSec != 250 {
		t.Fatalf("normal run reports %v records/sec, want 250", snap2.RecordsPerSec)
	}
}

// TestProgressQualityPoints checks that metric points fold into the run's
// Quality map (latest value per name) and survive into the finished
// snapshot.
func TestProgressQualityPoints(t *testing.T) {
	p := NewForest()
	run := NewSpanID()
	p.Begin(Start{ID: run, Kind: KindRun, Name: "q"})
	phase := NewSpanID()
	p.Begin(Start{ID: phase, Parent: run, Kind: KindPhase, Name: "em"})
	p.Point(Point{Span: phase, Kind: PointMetric, Name: "em_log_likelihood", Task: 0, Value: -40.5})
	p.Point(Point{Span: phase, Kind: PointMetric, Name: "em_log_likelihood", Task: 1, Value: -38.25})
	p.Point(Point{Span: phase, Kind: PointMetric, Name: "em_active_clusters", Task: 1, Value: 3})

	snap, ok := p.Run(int64(run))
	if !ok {
		t.Fatal("live run not found")
	}
	if got := snap.Quality["em_log_likelihood"]; got != -38.25 {
		t.Fatalf("live quality em_log_likelihood = %v, want -38.25 (latest)", got)
	}
	if got := snap.Quality["em_active_clusters"]; got != 3 {
		t.Fatalf("live quality em_active_clusters = %v, want 3", got)
	}

	p.End(End{ID: phase, Kind: KindPhase, Name: "em", RealSeconds: 1})
	p.End(End{ID: run, Kind: KindRun, Name: "q", RealSeconds: 1})
	final, ok := p.Run(int64(run))
	if !ok {
		t.Fatal("finished run not retained")
	}
	if got := final.Quality["em_log_likelihood"]; got != -38.25 {
		t.Fatalf("finished quality em_log_likelihood = %v, want -38.25", got)
	}

	// A run that emitted no metric points keeps Quality nil (omitted from
	// the JSON payload).
	run2 := NewSpanID()
	p.Begin(Start{ID: run2, Kind: KindRun, Name: "plain"})
	p.End(End{ID: run2, Kind: KindRun, Name: "plain", RealSeconds: 1})
	plain, _ := p.Run(int64(run2))
	if plain.Quality != nil {
		t.Fatalf("plain run Quality = %v, want nil", plain.Quality)
	}
}
