package mr

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// unwiredValue has no wire kind and is never passed to RegisterWireValue,
// so encoding it is a task error on a worker.
type unwiredValue struct{ X int }

// childDriverEnv makes TestMain run runChildDriver instead of the tests:
// its value is the directory the child driver works in.
const childDriverEnv = "P3CMR_TEST_CHILD_DRIVER"

func init() {
	// test-unwired-maponly: a map-only job whose output cannot cross the wire.
	RegisterJobImpl("test-unwired-maponly", func([]byte) (JobFuncs, error) {
		return JobFuncs{NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
			ctx.Emit("v", unwiredValue{global})
			return nil
		})}, nil
	})
	// test-unwired-reduce: the map side spills int64 counts; the reducer's
	// output cannot cross the wire.
	RegisterJobImpl("test-unwired-reduce", func([]byte) (JobFuncs, error) {
		return JobFuncs{
			NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
				ctx.Emit("k", int64(1))
				return nil
			}),
			TypedReducer: TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
				ctx.Emit(key, unwiredValue{values.Len()})
				return nil
			}),
		}, nil
	})
	// test-slow-map: a shuffling job whose map tasks take a while; each
	// worker records its pid in the directory the spec names.
	RegisterJobImpl("test-slow-map", func(spec []byte) (JobFuncs, error) {
		pidDir := string(spec)
		return JobFuncs{
			NewMapper:    func() Mapper { return slowMapper{pidDir} },
			TypedReducer: sumInt64,
		}, nil
	})
}

type slowMapper struct{ pidDir string }

func (m slowMapper) Setup(*TaskContext) error {
	return os.WriteFile(filepath.Join(m.pidDir, strconv.Itoa(os.Getpid())), nil, 0o644)
}

// Map takes 100 ms a record, ~30 s for a task of runChildDriver's: far
// longer than the bound in which a worker must notice its driver died.
func (slowMapper) Map(ctx *TaskContext, global int, row []float64) error {
	time.Sleep(100 * time.Millisecond)
	return nil
}

func (slowMapper) Cleanup(ctx *TaskContext) error {
	ctx.Emit("rows", int64(ctx.Split.NumRows()))
	return nil
}

// readFrameTypes reads result frames until EOF, returning their types and
// the payload of each one.
func readFrameTypes(t *testing.T, br *bufio.Reader, stopAt byte) ([]byte, [][]byte) {
	t.Helper()
	var types []byte
	var payloads [][]byte
	for {
		typ, data, err := readFrame(br)
		if errors.Is(err, io.EOF) {
			return types, payloads
		}
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, typ)
		payloads = append(payloads, data)
		if typ == stopAt {
			return types, payloads
		}
	}
}

func workerJobFrame(impl string, mapOnly bool, spillDir string) jobFrame {
	jf := jobFrame{Name: impl, Impl: impl, NumReducers: 1, NB: 1, MapOnly: mapOnly, SpillDir: spillDir, SpillLimit: 1 << 30}
	if mapOnly {
		jf.NumReducers = 0
	}
	return jf
}

func workerMapFrame(split *Split) mapTaskFrame {
	return mapTaskFrame{Task: split.ID, Offset: split.Offset, Dim: split.Dim, KillAt: -1,
		SplitKey: split.shipKey(), RowBytes: encodeRows(split.Rows)}
}

// TestWorkerStopsAfterTaskError pins that a worker task which reported an
// error with fTaskErr sends nothing more for that task: a trailing done
// frame would be read by the driver as the answer to the next task it
// gives this worker. Map-only output and reduce output that cannot be
// wire-encoded are the task errors raised after the record loop.
func TestWorkerStopsAfterTaskError(t *testing.T) {
	split := makeSplits(10, 1)[0]
	t.Run("maponly", func(t *testing.T) {
		var ctl, res bytes.Buffer
		if err := writeFrame(&ctl, fJob, workerJobFrame("test-unwired-maponly", true, t.TempDir())); err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(&ctl, fMapTask, workerMapFrame(split)); err != nil {
			t.Fatal(err)
		}
		if err := runWorker(&ctl, &res, func(error) {}); err != nil {
			t.Fatal(err)
		}
		got, payloads := readFrameTypes(t, bufio.NewReader(&res), 0)
		if want := []byte{fHello, fTaskErr}; !bytes.Equal(got, want) {
			t.Fatalf("frames = %v, want %v", got, want)
		}
		var ef errFrame
		if err := decodeFrame(payloads[1], &ef); err != nil || !strings.Contains(ef.Msg, "RegisterWireValue") {
			t.Fatalf("task error = %q (%v), want the wire-registration error", ef.Msg, err)
		}
	})
	t.Run("reduce", func(t *testing.T) {
		// The reduce task reads the map task's spill segments, so the test
		// talks to the worker over pipes, the way a driver does, and closes
		// the control pipe only after the last result: a closed control
		// pipe tells the worker its driver is gone, and it sweeps the spill
		// directory at once.
		ctlR, ctlW := io.Pipe()
		resR, resW := io.Pipe()
		done := make(chan error, 1)
		go func() {
			done <- runWorker(ctlR, resW, func(error) {})
			resW.Close()
		}()
		br := bufio.NewReader(resR)
		got, _ := readFrameTypes(t, br, fHello)
		if err := writeFrame(ctlW, fJob, workerJobFrame("test-unwired-reduce", false, t.TempDir())); err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(ctlW, fMapTask, workerMapFrame(split)); err != nil {
			t.Fatal(err)
		}
		more, payloads := readFrameTypes(t, br, fMapDone)
		if got, want := append(got, more...), []byte{fHello, fMapDone}; !bytes.Equal(got, want) {
			t.Fatalf("map frames = %v, want %v", got, want)
		}
		var md mapDoneFrame
		if err := decodeFrame(payloads[0], &md); err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(ctlW, fReduceTask, reduceTaskFrame{Task: 0, KillAt: -1, Segments: md.Segments}); err != nil {
			t.Fatal(err)
		}
		got, _ = readFrameTypes(t, br, fTaskErr)
		ctlW.Close()
		more, _ = readFrameTypes(t, br, 0)
		got = append(got, more...)
		if want := []byte{fTaskErr}; !bytes.Equal(got, want) {
			t.Fatalf("reduce frames = %v, want %v", got, want)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}

// runChildDriver runs a multiprocess job to completion in this process,
// as the driver a test kills mid-job. Its workers write their pids into
// dir/pids; its spill directory goes under dir/spill.
func runChildDriver(dir string) int {
	pidDir, spillBase := filepath.Join(dir, "pids"), filepath.Join(dir, "spill")
	e := NewEngine(Config{Backend: "multiprocess", Parallelism: 2, SpillDir: spillBase})
	_, err := e.Run(&Job{Name: "slow", Impl: "test-slow-map", Spec: []byte(pidDir),
		Splits: makeSplits(2400, 8), NumReducers: 2})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// procExited reports whether pid is gone or a zombie (a worker reparented
// to a pid 1 that does not reap stays a zombie, which has exited all the
// same).
func procExited(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	// The state field follows the parenthesized command name.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	return i < 0 || i+2 >= len(s) || s[i+2] == 'Z' || s[i+2] == 'X'
}

// TestDriverDeathLeavesNoWorkerOrSpill SIGKILLs a driver process mid-job
// — a re-exec of this test binary running runChildDriver — and pins that
// its worker processes exit and its spill directory is removed, though
// the driver never ran its teardown and the workers are mid-task: a
// worker notices the driver is gone as soon as its control pipe closes,
// sweeps the spill directory itself and exits without finishing the task.
func TestDriverDeathLeavesNoWorkerOrSpill(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc to read worker states from")
	}
	dir := t.TempDir()
	pidDir, spillBase := filepath.Join(dir, "pids"), filepath.Join(dir, "spill")
	for _, d := range []string{pidDir, spillBase} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	driver := exec.Command(exe)
	driver.Env = append(os.Environ(), childDriverEnv+"="+dir)
	driver.Stderr = os.Stderr
	if err := driver.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			driver.Process.Kill()
			driver.Wait()
		}
	}()

	// Wait until both workers run map tasks.
	var pids []int
	for deadline := time.Now().Add(60 * time.Second); len(pids) < 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("workers never started map tasks (pids %v)", pids)
		}
		ents, err := os.ReadDir(pidDir)
		if err != nil {
			t.Fatal(err)
		}
		pids = pids[:0]
		for _, ent := range ents {
			pid, err := strconv.Atoi(ent.Name())
			if err != nil {
				t.Fatal(err)
			}
			pids = append(pids, pid)
		}
	}
	spills, _ := filepath.Glob(filepath.Join(spillBase, "p3cmr-spill-*"))
	if len(spills) != 1 {
		t.Fatalf("spill directories mid-job = %v, want one", spills)
	}

	driver.Process.Signal(syscall.SIGKILL)
	driver.Wait()
	killed = true

	// The workers are mid-task; each must exit within 5 s all the same.
	var alive []int
	deadline := time.Now().Add(5 * time.Second)
	for {
		alive = alive[:0]
		for _, pid := range pids {
			if !procExited(pid) {
				alive = append(alive, pid)
			}
		}
		spills, _ = filepath.Glob(filepath.Join(spillBase, "p3cmr-spill-*"))
		if (len(alive) == 0 && len(spills) == 0) || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, pid := range alive {
		syscall.Kill(pid, syscall.SIGKILL)
	}
	if len(alive) > 0 {
		t.Errorf("workers %v still running after their driver was killed", alive)
	}
	if len(spills) > 0 {
		t.Errorf("spill directories %v left behind by the killed driver's run", spills)
	}
}

// TestSendTaskCountsOnlyFlushedFrames sends a fresh worker's first task
// over a control pipe whose read end is closed: the frames fit the
// buffer, so only the flush fails, and the worker must still count no
// task — runTask reads a worker with tasks served as one that died while
// idle and moves on without failing the attempt.
func TestSendTaskCountsOnlyFlushedFrames(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r.Close()
	wp := &workerProc{name: "w-closed", in: w, bw: bufio.NewWriter(w), held: map[uint64]bool{}}
	p := &procRun{run: 1}
	if err := p.sendTask(wp, fReduceTask, reduceTaskFrame{Task: 0}); err == nil {
		t.Fatal("sendTask to a closed control pipe succeeded")
	}
	if wp.tasks != 0 {
		t.Errorf("tasks = %d after a failed send, want 0", wp.tasks)
	}
}

// foreignWireEnv makes TestMain replace the process's wire schema with the
// variable's value before it turns worker, so workers spawned while a test
// sets it announce another build's schema.
const foreignWireEnv = "P3CMR_TEST_FOREIGN_WIRE"

// TestWireSchemaIsWireGoHash pins what the handshake compares: the SHA-256
// of wire.go as it is on disk, embedded whole.
func TestWireSchemaIsWireGoHash(t *testing.T) {
	src, err := os.ReadFile("wire.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireSource, src) {
		t.Fatal("embedded wireSource differs from wire.go")
	}
	sum := sha256.Sum256(src)
	if want := hex.EncodeToString(sum[:]); wireSchema != want {
		t.Errorf("wireSchema = %s, want sha256(wire.go) = %s", wireSchema, want)
	}
}

// TestWorkerHandshakeSameBuild spawns a worker of this binary: its hello
// carries the driver's schema and the fleet takes it.
func TestWorkerHandshakeSameBuild(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{exe: exe}
	w, err := f.spawn()
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if w.pid <= 0 || f.stats.WorkersSpawned != 1 {
		t.Errorf("spawned worker pid %d, WorkersSpawned %d", w.pid, f.stats.WorkersSpawned)
	}
	if err := shutdown([]*workerProc{w}); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestWorkerHandshakeRefusesForeignWireSchema runs a multiprocess job whose
// workers announce another wire schema: the job fails with an error naming
// both schemas, no worker joins the fleet, and the refused worker is
// reaped, not left a zombie.
func TestWorkerHandshakeRefusesForeignWireSchema(t *testing.T) {
	const foreign = "f0f0f0f0-another-build"
	t.Setenv(foreignWireEnv, foreign)
	e := NewEngine(Config{Backend: "multiprocess", Parallelism: 1, SpillDir: t.TempDir()})
	defer e.Close()
	_, err := e.Run(confJob("conf-wordcount", 30, 2, 1))
	if err == nil {
		t.Fatal("a job on workers of another wire schema succeeded")
	}
	for _, s := range []string{foreign, wireSchema} {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("error %q does not name schema %s", err, s)
		}
	}
	m := regexp.MustCompile(`worker pid (\d+)`).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("error %q names no worker pid", err)
	}
	pid, _ := strconv.Atoi(m[1])
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("refused worker %d not reaped: kill(pid, 0) = %v", pid, err)
	}
	if stats, _ := e.LastProcStats(); stats.WorkersSpawned != 0 {
		t.Errorf("WorkersSpawned = %d, want 0", stats.WorkersSpawned)
	}
}
