package mr

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p3cmr/internal/obs"
)

// TestOpsProcLiveReads runs the full ops plane against a live multiprocess
// chaos run: while injected faults SIGKILL real worker processes, poller
// goroutines hammer /metrics, /runs, /workers and /healthz. Under -race this
// pins the read path (the span forest's views, Registry, Prometheus
// rendering) against the driver folding worker telemetry frames
// concurrently; afterwards the /runs and /workers payloads must reconcile
// with the driver's own counters.
func TestOpsProcLiveReads(t *testing.T) {
	reg := obs.NewRegistry()
	forest := obs.NewForest()
	mem := obs.NewMemTracer()
	engine := NewEngine(Config{
		Parallelism: 4, Backend: "multiprocess",
		SpillDir: t.TempDir(), SpillThresholdBytes: 1,
		Faults:      RateFaultPlan{MapRate: 0.3, ReduceRate: 0.3, Seed: 23},
		MaxAttempts: 12,
		Tracer:      obs.Multi(forest, mem),
		Metrics:     reg, TelemetrySample: 2 * time.Millisecond,
	})
	defer engine.Close()

	srv, err := obs.StartOps("127.0.0.1:0", reg, forest, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	var polls atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/runs", "/workers", "/healthz"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(base + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d mid-run", path, resp.StatusCode)
					return
				}
				polls.Add(1)
			}
		}(path)
	}

	// Two multiprocess jobs under one hand-rolled run span, so the forest
	// tracks a run while worker fleets spawn, die and respawn beneath it.
	runSpan := obs.NewSpanID()
	tr := engine.Tracer()
	tr.Begin(obs.Start{ID: runSpan, Kind: obs.KindRun, Name: "ops-proc"})
	var totalRetries int64
	var runErr error
	for i := 0; i < 2 && runErr == nil; i++ {
		job := confJob("conf-wordcount", 600, 6, 3)
		job.TraceParent = runSpan
		var out *Output
		out, runErr = engine.Run(job)
		if runErr == nil {
			totalRetries += out.Counters.TaskRetries
		}
	}
	end := obs.End{ID: runSpan, Kind: obs.KindRun, Name: "ops-proc", Retries: totalRetries}
	if runErr != nil {
		end.Outcome = obs.OutcomeError
		end.Err = runErr.Error()
	}
	tr.End(end)
	close(done)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if totalRetries == 0 {
		t.Fatal("chaos plan injected no retries")
	}
	if polls.Load() == 0 {
		t.Fatal("pollers never completed a request while the run was live")
	}
	if err := mem.Validate(); err != nil {
		t.Fatalf("span forest invalid after concurrent polling: %v", err)
	}

	// Ground truth from the MemTracer: worker-attributed attempts and faults.
	wantAttempts, wantFaults := 0, 0
	for _, e := range mem.Ends() {
		if e.Kind == obs.KindTask && e.Worker != "" {
			wantAttempts++
			if e.Outcome == obs.OutcomeFault {
				wantFaults++
			}
		}
	}

	// /workers must partition the run's attempts and faults exactly.
	resp, err := http.Get(base + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snaps []obs.WorkerSnapshot
	if err := json.Unmarshal(body, &snaps); err != nil {
		t.Fatalf("/workers not JSON: %v\n%s", err, body)
	}
	if len(snaps) == 0 {
		t.Fatal("/workers empty after a multiprocess run")
	}
	gotAttempts, gotFaults, gotSamples := 0, 0, int64(0)
	for _, s := range snaps {
		if s.Worker == "" {
			t.Errorf("worker snapshot without a name: %+v", s)
		}
		gotAttempts += int(s.Attempts)
		gotFaults += int(s.Faults)
		gotSamples += s.Samples
	}
	if gotAttempts != wantAttempts {
		t.Errorf("/workers covers %d attempts, span stream has %d", gotAttempts, wantAttempts)
	}
	if gotFaults != wantFaults {
		t.Errorf("/workers covers %d faults, span stream has %d", gotFaults, wantFaults)
	}
	if int64(gotFaults) != totalRetries {
		t.Errorf("/workers faults = %d, driver TaskRetries = %d", gotFaults, totalRetries)
	}
	if gotSamples == 0 {
		t.Error("/workers reports zero resource samples across the fleet")
	}

	// /metrics must now carry the per-worker families.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, fam := range []string{"p3c_worker_attempts_total", "p3c_worker_faults_total", "p3c_worker_samples_total"} {
		if !strings.Contains(string(metrics), fam) {
			t.Errorf("/metrics missing %s family after a telemetry run", fam)
		}
	}

	// The final /runs snapshot must agree with the driver counters.
	resp, err = http.Get(base + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var runs []obs.RunSnapshot
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatalf("/runs not JSON: %v\n%s", err, body)
	}
	if len(runs) != 1 {
		t.Fatalf("/runs has %d entries, want 1", len(runs))
	}
	final := runs[0]
	if final.Active || final.Name != "ops-proc" {
		t.Fatalf("final run snapshot = %+v", final)
	}
	if final.Retries != totalRetries {
		t.Errorf("/runs retries = %d, driver counted %d", final.Retries, totalRetries)
	}
	if final.Faults != wantFaults {
		t.Errorf("/runs faults = %d, span stream has %d", final.Faults, wantFaults)
	}
	if final.Tasks != final.TasksDone || final.Tasks == 0 {
		t.Errorf("final tasks = %d/%d, want all done and nonzero", final.TasksDone, final.Tasks)
	}
}
