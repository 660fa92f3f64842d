package mr

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// childExitEnv makes TestMain run runExitingDriver instead of the tests:
// its value is the directory the child driver works in.
const childExitEnv = "P3CMR_TEST_CHILD_EXIT"

func init() {
	// test-fleet-barrier: each map task records its worker's pid in the
	// directory the spec names and waits until two workers have, so a job
	// of two or more splits at Parallelism 2 runs on two workers.
	RegisterJobImpl("test-fleet-barrier", func(spec []byte) (JobFuncs, error) {
		dir := string(spec)
		return JobFuncs{
			NewMapper:    func() Mapper { return barrierMapper{dir} },
			TypedReducer: sumInt64,
		}, nil
	})
}

type barrierMapper struct{ dir string }

func (m barrierMapper) Setup(*TaskContext) error {
	if err := os.WriteFile(filepath.Join(m.dir, strconv.Itoa(os.Getpid())), nil, 0o644); err != nil {
		return err
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		ents, err := os.ReadDir(m.dir)
		if err != nil {
			return err
		}
		if len(ents) >= 2 {
			return nil
		}
	}
	return errors.New("no second worker started a task")
}

func (barrierMapper) Map(ctx *TaskContext, global int, row []float64) error {
	ctx.Emit("sum", int64(row[0]))
	return nil
}

func (barrierMapper) Cleanup(*TaskContext) error { return nil }

// TestWireRowsRoundTripBitExact pins that a split's rows reach a worker
// with every bit intact: signed zeros, NaN payloads, subnormals and
// infinities, through encodeRows, a map task frame and decodeRows.
func TestWireRowsRoundTripBitExact(t *testing.T) {
	bits := []uint64{
		0, 1 << 63, // ±0
		0x7ff8000000000000, 0xfff8000000000000, // quiet NaNs, both signs
		0x7ff0000000000001, 0x7ff4000000000000, // signalling NaN payloads
		0x7ff8dead0000beef, 0x7fffffffffffffff, 0xffffffffffffffff,
		1, 0x000fffffffffffff, 0x8000000000000001, // subnormals
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		math.Float64bits(math.MaxFloat64), math.Float64bits(1), math.Float64bits(-0.1),
	}
	rows := make([]float64, len(bits))
	for i, b := range bits {
		rows[i] = math.Float64frombits(b)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, fMapTask, mapTaskFrame{Task: 3, SplitKey: 9, RowBytes: encodeRows(rows), KillAt: -1}); err != nil {
		t.Fatal(err)
	}
	typ, data, err := readFrame(&buf)
	if err != nil || typ != fMapTask {
		t.Fatalf("readFrame = 0x%02x, %v", typ, err)
	}
	var f mapTaskFrame
	if err := decodeFrame(data, &f); err != nil {
		t.Fatal(err)
	}
	got, err := decodeRows(f.RowBytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(bits) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(bits))
	}
	for i, v := range got {
		if math.Float64bits(v) != bits[i] {
			t.Errorf("row %d: bits %#016x, want %#016x", i, math.Float64bits(v), bits[i])
		}
	}
	if _, err := decodeRows(make([]byte, 12)); err == nil {
		t.Error("decodeRows accepted 12 bytes")
	}
}

// fleetWorkers returns the fleet's idle workers; with no Run in flight,
// that is every live worker.
func fleetWorkers(e *Engine) []*workerProc {
	e.mu.Lock()
	f := e.fleet
	e.mu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.idle)
}

// TestMultiprocessFleetDropsFormerSplits runs two split sets in turn on
// one engine, each job on both of its workers, and pins the residency
// rules: rows ship at most once per split and worker, a job of another
// split set makes every worker it reaches drop the splits that job does
// not list, and the driver's record of what each worker holds (checked against the
// worker's own report with every map task) then names only the second
// set. Split IDs repeat across the sets, so only the keys tell them apart.
func TestMultiprocessFleetDropsFormerSplits(t *testing.T) {
	e := NewEngine(Config{Backend: "multiprocess", Parallelism: 2, SpillDir: t.TempDir()})
	defer e.Close()
	run := func(splits []*Split) {
		t.Helper()
		if _, err := e.Run(&Job{Name: "barrier", Impl: "test-fleet-barrier", Spec: []byte(t.TempDir()),
			Splits: splits, NumReducers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	shipments := func() int {
		stats, _ := e.LastProcStats()
		return stats.SplitShipments
	}
	first, second := makeSplits(400, 4), makeSplits(400, 4)
	before := 0
	for _, set := range [][]*Split{first, second} {
		run(set)
		run(set)
		run(set)
		got := shipments() - before
		if got < len(set) || got > 2*len(set) {
			t.Errorf("three jobs over %d splits on 2 workers shipped rows %d times, want %d to %d",
				len(set), got, len(set), 2*len(set))
		}
		before += got
	}

	workers := fleetWorkers(e)
	if len(workers) != 2 {
		t.Fatalf("fleet has %d workers, want 2", len(workers))
	}
	for _, w := range workers {
		if len(w.held) == 0 {
			t.Errorf("worker %s holds no split", w.name)
		}
		for key := range w.held {
			if !slices.ContainsFunc(second, func(s *Split) bool { return s.key == key }) {
				t.Errorf("worker %s still holds split key %d, not of the second set", w.name, key)
			}
		}
	}
	if stats, _ := e.LastProcStats(); stats.WorkersSpawned != 2 {
		t.Errorf("WorkersSpawned = %d over six jobs, want 2", stats.WorkersSpawned)
	}
}

// TestMultiprocessFleetClose pins the fleet's lifetime: Runs share one
// fleet until Close, which stops every worker and is idempotent, and a
// Run after Close fails on every backend.
func TestMultiprocessFleetClose(t *testing.T) {
	spillBase := t.TempDir()
	e := NewEngine(Config{Backend: "multiprocess", Parallelism: 2, SpillDir: spillBase})
	for range 3 {
		if _, err := e.Run(confJob("conf-wordcount", 300, 3, 2)); err != nil {
			t.Fatal(err)
		}
	}
	stats := auditProcRun(t, "close", e, spillBase)
	if stats.WorkersSpawned > 2 {
		t.Errorf("three jobs at Parallelism 2 spawned %d workers, want at most 2", stats.WorkersSpawned)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	for _, e := range []*Engine{e, NewEngine(Config{})} {
		e.Close()
		if _, err := e.Run(confJob("conf-wordcount", 30, 3, 2)); !errors.Is(err, errEngineClosed) {
			t.Errorf("%s: Run after Close = %v, want %v", e.BackendName(), err, errEngineClosed)
		}
	}
}

// runExitingDriver runs a multiprocess job in this process, writes its
// workers' pids to dir/pids and returns without closing the engine, as a
// program that never calls Close does.
func runExitingDriver(dir string) int {
	e := NewEngine(Config{Backend: "multiprocess", Parallelism: 2, SpillDir: filepath.Join(dir, "spill")})
	if _, err := e.Run(confJob("conf-wordcount", 600, 4, 2)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	stats, _ := e.LastProcStats()
	var pids []string
	for _, pid := range stats.WorkerPIDs {
		pids = append(pids, strconv.Itoa(pid))
	}
	if err := os.WriteFile(filepath.Join(dir, "pids"), []byte(strings.Join(pids, "\n")), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// TestMultiprocessFleetDriverExitWithoutClose pins that a driver which
// exits normally without Close leaves no worker and no spill file: its
// workers see their control pipes close and exit.
func TestMultiprocessFleetDriverExitWithoutClose(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc to read worker states from")
	}
	dir := t.TempDir()
	spillBase := filepath.Join(dir, "spill")
	if err := os.Mkdir(spillBase, 0o755); err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	driver := exec.Command(exe)
	driver.Env = append(os.Environ(), childExitEnv+"="+dir)
	driver.Stderr = os.Stderr
	if err := driver.Run(); err != nil {
		t.Fatalf("driver: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "pids"))
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, f := range strings.Fields(string(raw)) {
		pid, err := strconv.Atoi(f)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
	}
	if len(pids) == 0 {
		t.Fatal("the driver spawned no worker")
	}
	var alive []int
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		alive = alive[:0]
		for _, pid := range pids {
			if !procExited(pid) {
				alive = append(alive, pid)
			}
		}
		if len(alive) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(alive) > 0 {
		t.Errorf("workers %v still running after their driver exited", alive)
	}
	if ents, _ := os.ReadDir(spillBase); len(ents) > 0 {
		t.Errorf("spill base holds %d entries after the driver exited", len(ents))
	}
}
