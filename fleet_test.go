package p3cmr

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"p3cmr/internal/em"
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

// modelBits returns every float64 of an EM model as its bits.
func modelBits(m *em.Model) []uint64 {
	var bits []uint64
	for _, c := range m.Components {
		bits = append(bits, math.Float64bits(c.Weight))
		for _, v := range c.Mean {
			bits = append(bits, math.Float64bits(v))
		}
		for _, v := range c.Cov.Data {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// blobModel starts EM with three components on attributes 0–2.
func blobModel() *em.Model {
	m := &em.Model{Attrs: []int{0, 1, 2}}
	for _, c := range []float64{0.2, 0.5, 0.8} {
		cov := linalg.Identity(3)
		linalg.Scale(cov, 0.05, cov)
		m.Components = append(m.Components, &em.Component{Weight: 1.0 / 3, Mean: []float64{c, c, c}, Cov: cov})
	}
	return m
}

// TestMultiprocessFleetFitMR runs em.FitMR, one MR job per iteration over
// the same splits, on worker processes at Parallelism 2: the engine's
// fleet spawns at most 2 workers over its life, ships each split's rows
// at most once per worker, and the fitted model is bit-identical to the
// in-process fit.
func TestMultiprocessFleetFitMR(t *testing.T) {
	data, _ := genAPITestData(t, 3000, 4)
	data.Normalize()
	fit := func(cfg mr.Config) (*em.Model, *mr.Engine) {
		t.Helper()
		engine := mr.NewEngine(cfg)
		model := blobModel()
		if _, err := em.FitMR(engine, data.Splits(8), model, em.FitOptions{MaxIterations: 6, Tolerance: 1e-12}); err != nil {
			t.Fatal(err)
		}
		return model, engine
	}
	want, _ := fit(mr.Config{Parallelism: 2})
	got, engine := fit(mr.Config{Backend: "multiprocess", Parallelism: 2, SpillDir: t.TempDir()})
	if err := engine.Close(); err != nil {
		t.Error(err)
	}
	if fmt.Sprint(modelBits(got)) != fmt.Sprint(modelBits(want)) {
		t.Error("multiprocess EM model differs from the in-process one")
	}
	stats, ok := engine.LastProcStats()
	if !ok {
		t.Fatal("no ProcStats")
	}
	if engine.JobsRun() < 4 {
		t.Fatalf("FitMR ran %d jobs; the test needs several over the same splits", engine.JobsRun())
	}
	t.Logf("%d jobs: %+v", engine.JobsRun(), stats)
	if stats.WorkersSpawned > 2 {
		t.Errorf("WorkersSpawned = %d over %d jobs, want at most Parallelism 2", stats.WorkersSpawned, engine.JobsRun())
	}
	if max := 8 * stats.WorkersSpawned; stats.SplitShipments > max {
		t.Errorf("SplitShipments = %d, want at most splits × workers = %d", stats.SplitShipments, max)
	}
}

// killAfterJob is a Tracer that SIGKILLs a worker as soon as the first
// job named job ends, between that job and the next: the worker that ran
// the job's last map task, so it holds that task's split and whatever the
// task memoized on it. It waits until the worker is dead.
type killAfterJob struct {
	t      *testing.T
	engine *mr.Engine
	job    string

	mu     sync.Mutex
	worker string // of the job's last map task
	killed int    // pid, 0 until killed
	// shipped is ProcStats.SplitShipments at the kill.
	shipped int
}

func (k *killAfterJob) Begin(obs.Start) {}

func (k *killAfterJob) Point(obs.Point) {}

func (k *killAfterJob) End(e obs.End) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if e.Name != k.job || k.killed != 0 {
		return
	}
	switch {
	case e.Kind == obs.KindTask && e.Phase == "map" && e.Worker != "":
		k.worker = e.Worker
	case e.Kind == obs.KindJob:
		pid, err := strconv.Atoi(strings.TrimPrefix(k.worker, "w"))
		if err != nil {
			k.t.Errorf("worker name %q: %v", k.worker, err)
			return
		}
		if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
			k.t.Errorf("kill worker %d: %v", pid, err)
			return
		}
		for deadline := time.Now().Add(5 * time.Second); !processGone(pid); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				k.t.Errorf("worker %d still running 5 s after SIGKILL", pid)
				return
			}
		}
		stats, _ := k.engine.LastProcStats()
		k.killed, k.shipped = pid, stats.SplitShipments
	}
}

// processGone reports whether pid has exited: gone, or a zombie its
// parent has not reaped yet with no thread left but the leader. A
// SIGKILLed Go process's leader turns zombie while its other threads are
// still exiting, and those threads share its file table, so until they
// are gone its end of the control pipe can still be open and a send to it
// can still succeed.
func processGone(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	s := string(b)
	if i := strings.LastIndexByte(s, ')'); i >= 0 && i+2 < len(s) && s[i+2] != 'Z' && s[i+2] != 'X' {
		return false
	}
	threads, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	return err != nil || len(threads) <= 1
}

// TestMultiprocessFleetWorkerKilledBetweenJobs SIGKILLs the only worker of
// a Light run right after its first prove-candidates job, while it holds
// the resident splits and their memoized interval bitmaps. The next task
// finds it dead when it sends, which is no attempt failure: a fresh worker
// gets the rows shipped again, and the run's JSON equals the in-process
// run's with no retry charged.
func TestMultiprocessFleetWorkerKilledBetweenJobs(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc to read worker states from")
	}
	data, _ := genAPITestData(t, 2000, 6)
	data.Normalize()
	want := renderJSON(t, data, P3CPlusMRLight, mr.NewEngine(mr.Config{Parallelism: 1}))

	kill := &killAfterJob{t: t, job: "prove-candidates"}
	engine := mr.NewEngine(mr.Config{Backend: "multiprocess", Parallelism: 1, SpillDir: t.TempDir(), Tracer: kill})
	kill.engine = engine
	if got := renderJSON(t, data, P3CPlusMRLight, engine); !bytes.Equal(got, want) {
		t.Error("JSON result differs from the in-process run after a worker was killed between jobs")
	}
	if kill.killed == 0 {
		t.Fatal("no worker was killed")
	}
	stats, _ := engine.LastProcStats()
	t.Logf("killed worker %d holding %d shipments; %+v", kill.killed, kill.shipped, stats)
	if stats.WorkersKilled != 1 || stats.WorkersSpawned != 2 {
		t.Errorf("WorkersKilled = %d, WorkersSpawned = %d, want 1 and 2", stats.WorkersKilled, stats.WorkersSpawned)
	}
	if stats.SplitShipments <= kill.shipped {
		t.Errorf("SplitShipments = %d after the kill, %d before: no rows shipped again", stats.SplitShipments, kill.shipped)
	}
	if r := engine.TotalCounters().TaskRetries; r != 0 {
		t.Errorf("TaskRetries = %d, want 0: a worker that died while idle fails no attempt", r)
	}
}
