package core

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

// TestChaosOpsServerLiveReads runs the ops plane against a live chaos
// pipeline: while the Light pipeline retries its way through an aggressive
// fault plan, a poller goroutine hammers /metrics, /runs and /healthz. Under
// -race this pins the snapshot isolation of the whole read path (the span
// forest's views, Registry, Prometheus rendering) against concurrent span and counter
// writes; afterwards the final /runs payload must agree with the pipeline's
// own statistics.
func TestChaosOpsServerLiveReads(t *testing.T) {
	data, _ := genData(t, 2000, 12, 3, 0.1, 55)
	params := LightParams()
	params.NumSplits = 12

	reg := obs.NewRegistry()
	forest := obs.NewForest()
	forest.SetPhasePlan("p3c-pipeline", params.PhasePlan())
	engine := mr.NewEngine(mr.Config{
		Parallelism: 8, NumReducers: 3,
		Faults:      mr.RateFaultPlan{MapRate: 0.25, ReduceRate: 0.3, StragglerRate: 0.4, StragglerSeconds: 7, Seed: 107},
		MaxAttempts: 12,
		Tracer:      forest,
		Metrics:     reg,
	})

	srv, err := obs.StartOps("127.0.0.1:0", reg, forest, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	var polls atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/runs", "/healthz"} {
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

	res, err := Run(engine, data, params)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Counters.TaskRetries == 0 {
		t.Fatal("chaos plan injected no retries")
	}
	if polls.Load() == 0 {
		t.Fatal("poller never completed a request while the pipeline ran")
	}

	// The post-run /runs payload must reconcile with the pipeline result.
	resp, err := http.Get(base + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var runs []obs.RunSnapshot
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatalf("/runs not JSON: %v\n%s", err, body)
	}
	if len(runs) != 1 {
		t.Fatalf("/runs has %d entries, want 1", len(runs))
	}
	final := runs[0]
	if final.Active || final.Outcome != "ok" || final.Name != "p3c-pipeline" {
		t.Fatalf("final run snapshot = %+v", final)
	}
	if final.JobsDone != res.Stats.Jobs {
		t.Errorf("/runs jobs_done = %d, pipeline ran %d jobs", final.JobsDone, res.Stats.Jobs)
	}
	if final.Retries != res.Stats.Counters.TaskRetries {
		t.Errorf("/runs retries = %d, pipeline counted %d", final.Retries, res.Stats.Counters.TaskRetries)
	}
	if final.Tasks != final.TasksDone || final.Tasks == 0 {
		t.Errorf("final tasks = %d/%d, want all done and nonzero", final.TasksDone, final.Tasks)
	}
	if final.Faults == 0 || final.Stragglers == 0 {
		t.Errorf("final snapshot saw %d faults, %d stragglers; want both > 0", final.Faults, final.Stragglers)
	}
}
