package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/obs/archive"
)

// traceWordcount runs the registered trace-wordcount job under the given
// fault plan with the deterministic cost model and returns the JSONL trace.
func traceWordcount(t *testing.T, plan mr.RateFaultPlan) []byte {
	t.Helper()
	rows := make([]float64, 400)
	for i := range rows {
		rows[i] = float64(i)
	}
	splits := make([]*mr.Split, 4)
	for s := range splits {
		splits[s] = &mr.Split{ID: s, Offset: s * 100, Dim: 1, Rows: rows[s*100 : (s+1)*100]}
	}
	var buf bytes.Buffer
	jsonl := obs.NewJSONLTracer(&buf)
	engine := mr.NewEngine(mr.Config{
		Parallelism: 2, Faults: plan, MaxAttempts: 12,
		Cost: mr.DefaultCostModel(), Tracer: jsonl,
	})
	job := &mr.Job{Name: "diff-wc", Splits: splits, Impl: "trace-wordcount", NumReducers: 3}
	if _, err := engine.Run(job); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeTemp(t *testing.T, dir, name string, b []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceDiffStragglerGate pins the -diff CI contract: comparing a clean
// run against a straggler-seeded run of the same job trips the straggler
// gate, attributes the growth, and exits nonzero; the reverse comparison
// (stragglers removed) passes.
func TestTraceDiffStragglerGate(t *testing.T) {
	clean := traceWordcount(t, mr.RateFaultPlan{})
	slow := traceWordcount(t, mr.RateFaultPlan{StragglerRate: 0.5, StragglerSeconds: 2, Seed: 1})

	dir := t.TempDir()
	pathA := writeTemp(t, dir, "clean.jsonl", clean)
	pathB := writeTemp(t, dir, "slow.jsonl", slow)

	gates := diffGates{stragglerSeconds: 1, wallFrac: -1, simFrac: -1}
	var out bytes.Buffer
	if code := runTraceDiff(&out, pathA, pathB, gates); code == 0 {
		t.Fatalf("clean→straggler diff exited 0; output:\n%s", out.String())
	}
	txt := out.String()
	if !strings.Contains(txt, "REGRESSION straggler") {
		t.Errorf("diff output lacks straggler regression verdict:\n%s", txt)
	}
	// The verdict must attribute the growth to the job/phase that slowed
	// down.
	if !strings.Contains(txt, "worst: diff-wc/") {
		t.Errorf("straggler regression not attributed to a job/phase:\n%s", txt)
	}
	for _, section := range []string{"totals", "critical path", "counter"} {
		if !strings.Contains(txt, section) {
			t.Errorf("diff output missing %q section:\n%s", section, txt)
		}
	}

	// Reverse direction: stragglers went away, gate must pass.
	var rev bytes.Buffer
	if code := runTraceDiff(&rev, pathB, pathA, gates); code != 0 {
		t.Fatalf("straggler→clean diff exited nonzero:\n%s", rev.String())
	}
	if !strings.Contains(rev.String(), "no regressions") {
		t.Errorf("passing diff lacks the all-clear line:\n%s", rev.String())
	}

	// Identical runs: everything is flat, exit 0 even with all gates armed.
	var same bytes.Buffer
	if code := runTraceDiff(&same, pathA, pathA, diffGates{stragglerSeconds: 0, wallFrac: 0.5, simFrac: 0}); code != 0 {
		t.Fatalf("self-diff exited nonzero:\n%s", same.String())
	}
}

// TestTraceDiffSimGate checks the fractional simulated-seconds gate: the
// straggler charge lands in sim seconds under the cost model, so a tight
// sim threshold trips on the seeded run too.
func TestTraceDiffSimGate(t *testing.T) {
	clean := traceWordcount(t, mr.RateFaultPlan{})
	slow := traceWordcount(t, mr.RateFaultPlan{StragglerRate: 0.9, StragglerSeconds: 5, Seed: 7})
	dir := t.TempDir()
	pathA := writeTemp(t, dir, "a.jsonl", clean)
	pathB := writeTemp(t, dir, "b.jsonl", slow)

	var out bytes.Buffer
	code := runTraceDiff(&out, pathA, pathB, diffGates{stragglerSeconds: -1, wallFrac: -1, simFrac: 0.1})
	if code == 0 {
		t.Fatalf("sim gate did not trip; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION sim s") {
		t.Errorf("output lacks sim regression verdict:\n%s", out.String())
	}
}

// TestResolveTraceShapes pins the -diff argument forms: a plain file, an
// archive record directory, and an archive root (newest record wins).
func TestResolveTraceShapes(t *testing.T) {
	dir := t.TempDir()
	trace := traceWordcount(t, mr.RateFaultPlan{})
	plain := writeTemp(t, dir, "plain.jsonl", trace)

	if got, err := resolveTrace(plain); err != nil || got != plain {
		t.Fatalf("resolveTrace(file) = %q, %v", got, err)
	}

	root := filepath.Join(dir, "arch")
	arch, err := archive.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	first, err := arch.Seal(plain, archive.Manifest{Name: "first"})
	if err != nil {
		t.Fatal(err)
	}
	// A second, different record becomes the newest.
	slow := writeTemp(t, dir, "slow.jsonl",
		traceWordcount(t, mr.RateFaultPlan{StragglerRate: 0.5, StragglerSeconds: 2, Seed: 1}))
	second, err := arch.Seal(slow, archive.Manifest{Name: "second"})
	if err != nil {
		t.Fatal(err)
	}

	recDir := filepath.Join(root, first.ID)
	if got, err := resolveTrace(recDir); err != nil || got != filepath.Join(recDir, "trace.jsonl") {
		t.Fatalf("resolveTrace(record dir) = %q, %v", got, err)
	}
	if got, err := resolveTrace(root); err != nil || got != arch.TracePath(second.ID) {
		t.Fatalf("resolveTrace(archive root) = %q, %v (want newest record %s)", got, err, second.ID)
	}

	empty := filepath.Join(dir, "nothing")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := resolveTrace(empty); err == nil {
		t.Fatal("resolveTrace(empty dir) succeeded, want error")
	}

	// End-to-end: diffing the two archive forms resolves and gates.
	var out bytes.Buffer
	if code := runTraceDiff(&out, recDir, root, diffGates{stragglerSeconds: 1, wallFrac: -1, simFrac: -1}); code == 0 {
		t.Fatalf("archived clean→straggler diff exited 0:\n%s", out.String())
	}
}

// TestConvergenceSeries pins the metric-point path end to end in p3ctrace:
// PointMetric events survive the JSONL round trip with their values, fold
// into per-name iteration series, render as a convergence table, and show
// up in the -json payload.
func TestConvergenceSeries(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	run := obs.NewSpanID()
	tr.Begin(obs.Start{ID: run, Kind: obs.KindRun, Name: "conv"})
	phase := obs.NewSpanID()
	tr.Begin(obs.Start{ID: phase, Parent: run, Kind: obs.KindPhase, Name: "em"})
	lls := []float64{-52.5, -44.125, -41.0625, -40.5}
	for it, ll := range lls {
		tr.Point(obs.Point{Span: phase, Kind: obs.PointMetric, Name: "em_log_likelihood", Task: it, Value: ll})
		tr.Point(obs.Point{Span: phase, Kind: obs.PointMetric, Name: "em_active_clusters", Task: it, Value: 3})
	}
	tr.End(obs.End{ID: phase, Kind: obs.KindPhase, Name: "em", RealSeconds: 1})
	tr.End(obs.End{ID: run, Kind: obs.KindRun, Name: "conv", RealSeconds: 1, Outcome: obs.OutcomeOK})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	forest, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := forest.Analyze(5)
	if len(a.Runs) != 1 {
		t.Fatalf("got %d runs", len(a.Runs))
	}
	conv := a.Runs[0].Convergence
	if len(conv) != 2 {
		t.Fatalf("got %d convergence rows, want 2: %+v", len(conv), conv)
	}
	if conv[0].Name != "em_active_clusters" || conv[1].Name != "em_log_likelihood" {
		t.Fatalf("rows not name-sorted: %q, %q", conv[0].Name, conv[1].Name)
	}
	ll := conv[1]
	if len(ll.Points) != len(lls) {
		t.Fatalf("log-likelihood series has %d points, want %d", len(ll.Points), len(lls))
	}
	for i, p := range ll.Points {
		if p.Iter != i || p.Value != lls[i] {
			t.Errorf("point %d = {%d, %v}, want {%d, %v}", i, p.Iter, p.Value, i, lls[i])
		}
	}

	var txt bytes.Buffer
	if err := obs.WriteText(&txt, a, false); err != nil {
		t.Fatal(err)
	}
	// The trend column ends each convergence row: the sparkline of a
	// strictly improving series starts at the bottom ramp level and ends at
	// the top; a flat series renders mid-level.
	trend := make(map[string]string)
	for _, line := range strings.Split(txt.String(), "\n") {
		if f := strings.Fields(line); len(f) == 5 && strings.HasPrefix(f[0], "em_") {
			trend[f[0]] = f[4]
		}
	}
	if got := trend["em_log_likelihood"]; got != "▁▅▇█" {
		t.Errorf("log-likelihood trend %q, want ▁▅▇█ (bottom to top of the ramp):\n%s", got, txt.String())
	}
	if got := trend["em_active_clusters"]; got != "▅▅▅▅" {
		t.Errorf("flat series trend %q, want mid-level ▅▅▅▅:\n%s", got, txt.String())
	}

	// -json carries the same series.
	payload, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Runs []struct {
			Convergence []obs.ConvergenceRow `json:"convergence"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(payload, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Runs) != 1 || len(decoded.Runs[0].Convergence) != 2 {
		t.Fatalf("-json payload lost the convergence section: %s", payload)
	}
}

// TestJSONWorkersMatchSpanStream pins the -json worker table against the
// span stream itself: the same multiprocess event stream feeds a JSONL
// trace (what p3ctrace -json analyzes) and a MemTracer (the ground-truth
// event log), and every per-worker figure of the -json payload must equal
// the total of the worker-attributed events the MemTracer recorded.
func TestJSONWorkersMatchSpanStream(t *testing.T) {
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
	mem := obs.NewMemTracer()
	engine := mr.NewEngine(mr.Config{
		Parallelism: 4, Backend: "multiprocess", SpillDir: t.TempDir(), SpillThresholdBytes: 1,
		Faults:      mr.RateFaultPlan{MapRate: 0.4, ReduceRate: 0.4, StragglerRate: 0.3, StragglerSeconds: 3, Seed: 11},
		MaxAttempts: 12, Cost: mr.DefaultCostModel(), Tracer: obs.Multi(jsonl, mem),
	})
	defer engine.Close()
	if _, err := engine.Run(job); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}

	forest, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := forest.Analyze(10)
	if len(a.Runs) != 1 {
		t.Fatalf("got %d runs", len(a.Runs))
	}

	// Round-trip the analysis through its JSON form — the figures must hold
	// for what -json actually emits, not the in-memory struct.
	payload, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var decoded obs.Analysis
	if err := json.Unmarshal(payload, &decoded); err != nil {
		t.Fatal(err)
	}
	got := decoded.Runs[0].Workers
	if len(got) == 0 {
		t.Fatal("-json payload carries no worker rows for a multiprocess trace")
	}

	want := make(map[string]*obs.WorkerRow)
	row := func(name string) *obs.WorkerRow {
		if want[name] == nil {
			want[name] = &obs.WorkerRow{Worker: name, StepSeconds: map[string]float64{}}
		}
		return want[name]
	}
	for _, e := range mem.Ends() {
		switch {
		case e.Worker == "":
		case e.Kind == obs.KindTask:
			r := row(e.Worker)
			r.Attempts++
			r.WallSeconds += e.RealSeconds
			if e.Outcome == obs.OutcomeFault {
				r.Faults++
				r.WastedRecords += e.Wasted.MapInputRecords + e.Wasted.ReduceInputVals
			}
		case e.Kind == obs.KindStep:
			row(e.Worker).StepSeconds[e.Name] += e.RealSeconds
		}
	}
	for _, p := range mem.Points() {
		switch {
		case p.Worker == "":
		case p.Kind == obs.PointStraggler:
			row(p.Worker).StragglerSeconds += p.Seconds
		case p.Kind == obs.PointSample:
			r := row(p.Worker)
			r.Samples++
			r.PeakRSSBytes = max(r.PeakRSSBytes, p.Sample.RSSBytes)
			r.PeakQueueBytes = max(r.PeakQueueBytes, p.Sample.QueueBytes)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("-json has %d worker rows, the span stream names %d workers", len(got), len(want))
	}
	near := func(a, b float64) bool { return a-b <= 1e-9 && b-a <= 1e-9 }
	for _, g := range got {
		w, ok := want[g.Worker]
		if !ok {
			t.Errorf("worker %q in -json rows but not in the span stream", g.Worker)
			continue
		}
		if g.Attempts != w.Attempts || g.Faults != w.Faults || g.Samples != w.Samples {
			t.Errorf("worker %q: -json attempts/faults/samples %d/%d/%d, span stream %d/%d/%d",
				g.Worker, g.Attempts, g.Faults, g.Samples, w.Attempts, w.Faults, w.Samples)
		}
		if !near(g.WallSeconds, w.WallSeconds) || !near(g.StragglerSeconds, w.StragglerSeconds) {
			t.Errorf("worker %q: -json wall/straggler %g/%g, span stream %g/%g",
				g.Worker, g.WallSeconds, g.StragglerSeconds, w.WallSeconds, w.StragglerSeconds)
		}
		if g.WastedRecords != w.WastedRecords {
			t.Errorf("worker %q: -json wasted records %d, span stream %d", g.Worker, g.WastedRecords, w.WastedRecords)
		}
		if g.PeakRSSBytes != w.PeakRSSBytes || g.PeakQueueBytes != w.PeakQueueBytes {
			t.Errorf("worker %q: -json peak rss/queue %d/%d, span stream %d/%d",
				g.Worker, g.PeakRSSBytes, g.PeakQueueBytes, w.PeakRSSBytes, w.PeakQueueBytes)
		}
		for name, s := range w.StepSeconds {
			if !near(g.StepSeconds[name], s) {
				t.Errorf("worker %q step %q: -json %g, span stream %g", g.Worker, name, g.StepSeconds[name], s)
			}
		}
	}
}
