package mr

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// This file is the cross-backend conformance harness: every job here is
// expressed as data (Job.Impl + Spec, resolved through the registry), so
// the identical job runs on both backends — in-process goroutines and
// re-exec'd worker OS processes with disk spills — and the harness pins
// that output pairs, counters, Wasted and ShuffledBytes are bit-identical
// across backend × parallelism × spill threshold × fault plan. The
// multiprocess rows double as the process-kill chaos harness: injected
// failures SIGKILL real worker processes, and the audit checks no worker
// survives the run and no spill file survives the teardown.

func init() {
	// conf-wordcount: wordcount with int64 counts. It takes no spec; a
	// non-empty one is a builder error.
	RegisterJobImpl("conf-wordcount", func(spec []byte) (JobFuncs, error) {
		if len(spec) != 0 {
			return JobFuncs{}, fmt.Errorf("conf-wordcount: spec %q, want none", spec)
		}
		return JobFuncs{
			NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
				ctx.Emit(fmt.Sprintf("k%02d", int(row[0])%17), int64(1))
				ctx.Emit("total", int64(1))
				return nil
			}),
			TypedReducer: sumInt64,
		}, nil
	})

	// conf-nocombine: emits float64 records; the reducer commits both a
	// float64 sum and an int count, so both wire kinds round-trip through
	// the spill codec. (The name predates the engine's combiner removal; it
	// is kept so test row names stay stable.)
	RegisterJobImpl("conf-nocombine", func(spec []byte) (JobFuncs, error) {
		return JobFuncs{
			NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
				ctx.Emit(fmt.Sprintf("g%03d", int(row[0])%97), row[0]*0.5)
				return nil
			}),
			TypedReducer: TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
				var s float64
				for i := 0; i < values.Len(); i++ {
					s += values.Value(i).(float64)
				}
				ctx.Emit(key, s)
				ctx.Emit(key, values.Len())
				return nil
			}),
		}, nil
	})

	// conf-maponly: map-only job with mixed-type values (scalar, string,
	// slice), exercising the pairs wire codec instead of the spill path.
	RegisterJobImpl("conf-maponly", func(spec []byte) (JobFuncs, error) {
		return JobFuncs{
			NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
				ctx.Emit(fmt.Sprintf("p%05d", global), row[0]*0.25)
				if global%7 == 0 {
					ctx.Emit("vec", []float64{row[0], row[0] + 1})
				}
				if global%11 == 0 {
					ctx.Emit("tag", fmt.Sprintf("t%d", global%3))
				}
				return nil
			}),
		}, nil
	})

	// conf-spec: a Spec consumer shipping slice payloads through the
	// shuffle (through the spill codec), its parameters decoded from the
	// Spec once per builder — in every worker process, too.
	RegisterJobImpl("conf-spec", func(spec []byte) (JobFuncs, error) {
		var sp confSpec
		if err := DecodeSpec(spec, &sp); err != nil {
			return JobFuncs{}, err
		}
		return JobFuncs{
			NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
				k := sp.Labels[int(row[0])%len(sp.Labels)]
				ctx.Emit(k, []float64{row[0] * sp.Scale, float64(sp.Bias)})
				return nil
			}),
			TypedReducer: TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
				var s float64
				for i := 0; i < values.Len(); i++ {
					for _, x := range values.Value(i).([]float64) {
						s += x
					}
				}
				ctx.Emit(key, s)
				return nil
			}),
		}, nil
	})

	// conf-crash: a mapper that SIGKILLs its own worker process with no
	// dying frame — a real crash, not an injected fault — exactly once per
	// sentinel file. Spec is the sentinel path; empty means never crash
	// (the in-process baseline). Guarded to worker processes so it can
	// never kill the test process itself.
	RegisterJobImpl("conf-crash", func(spec []byte) (JobFuncs, error) {
		sentinel := string(spec)
		return JobFuncs{
			NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
				if sentinel != "" && global == 7 && os.Getenv(workerEnv) != "" {
					if _, err := os.Stat(sentinel); os.IsNotExist(err) {
						os.WriteFile(sentinel, []byte("x"), 0o644)
						selfKill()
					}
				}
				ctx.Emit(fmt.Sprintf("c%d", int(row[0])%5), int64(1))
				return nil
			}),
			TypedReducer: sumInt64,
		}, nil
	})
}

// confJob instantiates a registry job over the standard conformance input.
func confJob(impl string, n, numSplits, numReducers int) *Job {
	j := &Job{
		Name:        "conf-" + impl,
		Splits:      makeSplits(n, numSplits),
		Impl:        impl,
		NumReducers: numReducers,
	}
	if impl == "conf-spec" {
		spec, err := EncodeSpec(confSpec{Scale: 1.5, Labels: []string{"alpha", "beta", "gamma", "delta"}, Bias: -3})
		if err != nil {
			panic(err)
		}
		j.Spec = spec
	}
	return j
}

// confSpec is the conf-spec job's Spec.
type confSpec struct {
	Scale  float64
	Labels []string
	Bias   int64
}

// spillThresholds is the conformance sweep of Config.SpillThresholdBytes:
// spill after every record, spill at 1 MiB, never spill mid-task.
var spillThresholds = []int64{1, 1 << 20, math.MaxInt64}

func spillName(v int64) string {
	if v == math.MaxInt64 {
		return "inf"
	}
	return fmt.Sprint(v)
}

// auditProcRun closes the engine and asserts its multiprocess runs left
// nothing behind: every spawned worker pid is dead and the spill base
// directory is empty again.
func auditProcRun(t *testing.T, name string, e *Engine, spillBase string) ProcStats {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Errorf("%s: close: %v", name, err)
	}
	stats, ok := e.LastProcStats()
	if !ok {
		t.Fatalf("%s: no ProcStats after a multiprocess run", name)
	}
	if stats.WorkersSpawned == 0 || len(stats.WorkerPIDs) != stats.WorkersSpawned {
		t.Errorf("%s: implausible worker accounting: %+v", name, stats)
	}
	for _, pid := range stats.WorkerPIDs {
		if err := syscall.Kill(pid, 0); err == nil || !errors.Is(err, syscall.ESRCH) {
			t.Errorf("%s: worker pid %d still exists after Run (kill(0) err=%v)", name, pid, err)
		}
	}
	ents, err := os.ReadDir(spillBase)
	if err != nil {
		t.Fatalf("%s: read spill base: %v", name, err)
	}
	if len(ents) != 0 {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Errorf("%s: spill dir not swept, leaked: %v", name, names)
	}
	return stats
}

// TestBackendConformance is the tentpole oracle: for every registry job,
// every backend × parallelism × spill threshold × fault plan must produce
// output pairs, data counters, and Wasted bit-identical to the in-process
// fault-free baseline (Wasted compared against the in-process run under
// the same plan). Multiprocess rows additionally audit worker and spill
// hygiene.
func TestBackendConformance(t *testing.T) {
	const n, numSplits, numReducers = 1200, 6, 4
	jobs := []struct {
		name string
		mk   func() *Job
	}{
		{"wordcount-boxed", func() *Job { return confJob("conf-wordcount", n, numSplits, numReducers) }},
		{"nocombine", func() *Job { return confJob("conf-nocombine", n, numSplits, numReducers) }},
		{"maponly", func() *Job { return confJob("conf-maponly", n, numSplits, 0) }},
		{"spec", func() *Job { return confJob("conf-spec", n, numSplits, numReducers) }},
	}
	plans := []struct {
		name string
		plan FaultPlan
	}{
		{"clean", nil},
		{"chaos", RateFaultPlan{MapRate: 0.3, ReduceRate: 0.3, Seed: 13}},
	}

	for _, jc := range jobs {
		jc := jc
		t.Run(jc.name, func(t *testing.T) {
			baseline, err := NewEngine(Config{Parallelism: 4}).Run(jc.mk())
			if err != nil {
				t.Fatal(err)
			}
			baseJSON, err := json.Marshal(baseline.Pairs)
			if err != nil {
				t.Fatal(err)
			}
			for _, pc := range plans {
				// The in-process run under this plan fixes the expected
				// Wasted accounting for every other backend.
				wastedRef := Counters{}
				if pc.plan != nil {
					ref, err := NewEngine(Config{Parallelism: 4, Faults: pc.plan, MaxAttempts: 12}).Run(jc.mk())
					if err != nil {
						t.Fatal(err)
					}
					wastedRef = ref.Wasted
				}
				pars := []int{1, 8}
				if raceDetectorEnabled {
					// Race runs keep only the max-concurrency rows: worker
					// processes are race-instrumented binaries whose spawn cost
					// dwarfs the jobs, and the spill/parallelism value matrix is
					// fully covered by the non-race suite.
					pars = []int{8}
				}
				for _, par := range pars {
					for _, backend := range BackendNames() {
						thresholds := []int64{0}
						if backend == "multiprocess" {
							thresholds = spillThresholds
							if raceDetectorEnabled {
								thresholds = []int64{1}
							}
						}
						for _, spill := range thresholds {
							name := fmt.Sprintf("%s/%s/par=%d/spill=%s", pc.name, backend, par, spillName(spill))
							spillBase := t.TempDir()
							engine := NewEngine(Config{
								Parallelism: par, Faults: pc.plan, MaxAttempts: 12,
								Backend: backend, SpillDir: spillBase, SpillThresholdBytes: spill,
							})
							out, err := engine.Run(jc.mk())
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if !reflect.DeepEqual(out.Pairs, baseline.Pairs) {
								t.Errorf("%s: output pairs differ from in-process fault-free baseline", name)
							}
							if got, want := normalized(out.Counters), normalized(baseline.Counters); got != want {
								t.Errorf("%s: counters differ:\n got %+v\nwant %+v", name, got, want)
							}
							if pc.plan != nil && out.Wasted != wastedRef {
								t.Errorf("%s: Wasted differs from in-process reference:\n got %+v\nwant %+v", name, out.Wasted, wastedRef)
							}
							gotJSON, err := json.Marshal(out.Pairs)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if string(gotJSON) != string(baseJSON) {
								t.Errorf("%s: serialized output not byte-identical to baseline", name)
							}
							if backend == "multiprocess" {
								auditProcRun(t, name, engine, spillBase)
							}
						}
					}
				}
			}
		})
	}
}

// TestProcKillChaos is the process-kill chaos oracle: a seeded fault plan
// SIGKILLs real worker processes mid-map and mid-reduce (workers flush
// their partial counters in a dying frame first), and the job must still
// commit output bit-identical to the clean baseline with exact retry and
// Wasted accounting — plus actual worker deaths observed.
func TestProcKillChaos(t *testing.T) {
	const n, numSplits, numReducers = 1500, 8, 4
	job := func() *Job { return confJob("conf-wordcount", n, numSplits, numReducers) }
	clean, err := NewEngine(Config{Parallelism: 4}).Run(job())
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name string
		plan FaultPlan
	}{
		{"mid-map", RateFaultPlan{MapRate: 0.5, Seed: 17}},
		{"mid-reduce", RateFaultPlan{ReduceRate: 0.5, Seed: 3}},
		{"mixed", RateFaultPlan{MapRate: 0.3, ReduceRate: 0.3, Seed: 13}},
	}
	for _, pc := range plans {
		inproc, err := NewEngine(Config{Parallelism: 4, Faults: pc.plan, MaxAttempts: 12}).Run(job())
		if err != nil {
			t.Fatalf("%s (inprocess): %v", pc.name, err)
		}
		if inproc.Counters.TaskRetries == 0 {
			t.Fatalf("%s: plan injected nothing — the oracle exercises nothing", pc.name)
		}
		spillBase := t.TempDir()
		engine := NewEngine(Config{
			Parallelism: 8, Faults: pc.plan, MaxAttempts: 12,
			Backend: "multiprocess", SpillDir: spillBase, SpillThresholdBytes: 1,
		})
		out, err := engine.Run(job())
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		if !reflect.DeepEqual(out.Pairs, clean.Pairs) {
			t.Errorf("%s: output differs from clean baseline", pc.name)
		}
		if got, want := normalized(out.Counters), normalized(clean.Counters); got != want {
			t.Errorf("%s: counters differ:\n got %+v\nwant %+v", pc.name, got, want)
		}
		if out.Counters.TaskRetries != inproc.Counters.TaskRetries {
			t.Errorf("%s: TaskRetries = %d, want %d (in-process reference)",
				pc.name, out.Counters.TaskRetries, inproc.Counters.TaskRetries)
		}
		if out.Wasted != inproc.Wasted {
			t.Errorf("%s: Wasted differs from in-process reference:\n got %+v\nwant %+v",
				pc.name, out.Wasted, inproc.Wasted)
		}
		stats := auditProcRun(t, pc.name, engine, spillBase)
		if stats.WorkersKilled == 0 {
			t.Errorf("%s: no worker process died — kills were not real", pc.name)
		}
	}
}

// TestProcKillRawCrash covers the ungraceful death: a worker that vanishes
// without a dying frame (straight SIGKILL from inside the mapper). The
// driver must treat the broken pipe as a retryable failure, spawn a fresh
// worker, and commit identical output; the crashed attempt's counters are
// unknowable, so Wasted stays empty.
func TestProcKillRawCrash(t *testing.T) {
	const n, numSplits = 900, 3
	clean, err := NewEngine(Config{Parallelism: 2}).Run(confJob("conf-crash", n, numSplits, 2))
	if err != nil {
		t.Fatal(err)
	}
	sentinel := filepath.Join(t.TempDir(), "crashed-once")
	spillBase := t.TempDir()
	job := confJob("conf-crash", n, numSplits, 2)
	job.Spec = []byte(sentinel)
	engine := NewEngine(Config{
		Parallelism: 2, MaxAttempts: 3,
		Backend: "multiprocess", SpillDir: spillBase,
	})
	out, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := os.Stat(sentinel); serr != nil {
		t.Fatal("sentinel never written — the crash path did not run")
	}
	if !reflect.DeepEqual(out.Pairs, clean.Pairs) {
		t.Error("output differs from clean baseline after raw worker crash")
	}
	if got, want := normalized(out.Counters), normalized(clean.Counters); got != want {
		t.Errorf("counters differ:\n got %+v\nwant %+v", got, want)
	}
	if out.Counters.TaskRetries != 1 {
		t.Errorf("TaskRetries = %d, want 1", out.Counters.TaskRetries)
	}
	if out.Wasted != (Counters{}) {
		t.Errorf("raw crash charged Wasted counters %+v; its counters are unknowable", out.Wasted)
	}
	stats := auditProcRun(t, "raw-crash", engine, spillBase)
	if stats.WorkersKilled == 0 {
		t.Error("crashed worker not reaped as killed")
	}
}

// TestBackendSpillOutOfCore pins that a dataset larger than the spill
// threshold actually runs through the disk-backed sorted-run merge: a tiny
// threshold must force mid-task spills whose on-disk volume exceeds it by
// orders of magnitude, while output stays bit-identical. The two jobs push
// float64 and int values (conf-nocombine) and int64 values
// (conf-wordcount) through the out-of-core merge.
func TestBackendSpillOutOfCore(t *testing.T) {
	const n, numSplits, numReducers = 20000, 4, 3
	const threshold = 32 << 10
	jobs := []struct {
		name, impl string
	}{
		{"nocombine", "conf-nocombine"},
		{"wordcount-boxed", "conf-wordcount"},
	}
	for _, jc := range jobs {
		t.Run(jc.name, func(t *testing.T) {
			job := func() *Job { return confJob(jc.impl, n, numSplits, numReducers) }
			baseline, err := NewEngine(Config{Parallelism: 4}).Run(job())
			if err != nil {
				t.Fatal(err)
			}
			spillBase := t.TempDir()
			engine := NewEngine(Config{
				Parallelism: 4, Backend: "multiprocess",
				SpillDir: spillBase, SpillThresholdBytes: threshold,
			})
			out, err := engine.Run(job())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out.Pairs, baseline.Pairs) {
				t.Error("out-of-core output differs from in-process baseline")
			}
			if got, want := normalized(out.Counters), normalized(baseline.Counters); got != want {
				t.Errorf("counters differ:\n got %+v\nwant %+v", got, want)
			}
			stats := auditProcRun(t, "out-of-core", engine, spillBase)
			if stats.MidTaskSpills == 0 {
				t.Error("no mid-task spill happened — the run was not out-of-core")
			}
			if stats.SpilledBytes <= threshold {
				t.Errorf("SpilledBytes = %d, want > threshold %d", stats.SpilledBytes, threshold)
			}
			if stats.MergedSegments <= stats.SpillFiles {
				t.Errorf("MergedSegments = %d with %d spill files — reduce did not merge multiple runs",
					stats.MergedSegments, stats.SpillFiles)
			}
			if out.Counters.ShuffledBytes != baseline.Counters.ShuffledBytes {
				t.Errorf("ShuffledBytes = %d, want %d", out.Counters.ShuffledBytes, baseline.Counters.ShuffledBytes)
			}
		})
	}
}

// TestChaosPoisonedPoolsMultiprocess extends the pool-poisoning oracle
// across the process boundary: DebugPoisonPools is forwarded to workers,
// whose own pools poison returned buffers — so any worker-side attempt
// reading a recycled buffer, or any driver-side state illegally shared
// instead of serialized, corrupts output visibly. Three rounds on one
// engine under kills at tiny spill threshold must stay bit-identical.
func TestChaosPoisonedPoolsMultiprocess(t *testing.T) {
	const n, numSplits, numReducers = 1200, 6, 4
	job := func() *Job { return confJob("conf-wordcount", n, numSplits, numReducers) }
	baseline, err := NewEngine(Config{Parallelism: 4}).Run(job())
	if err != nil {
		t.Fatal(err)
	}
	spillBase := t.TempDir()
	engine := NewEngine(Config{
		Parallelism: 8, Faults: RateFaultPlan{MapRate: 0.4, ReduceRate: 0.4, Seed: 21},
		MaxAttempts: 12, DebugPoisonPools: true,
		Backend: "multiprocess", SpillDir: spillBase, SpillThresholdBytes: 1,
	})
	var retries int64
	for round := 0; round < 3; round++ {
		out, err := engine.Run(job())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(out.Pairs, baseline.Pairs) {
			t.Fatalf("round %d: output differs from clean baseline — poisoned buffer observed", round)
		}
		for _, p := range out.Pairs {
			if strings.Contains(p.Key, poisonedKey) {
				t.Fatalf("round %d: poisoned key sentinel in output: %q", round, p.Key)
			}
			if p.Value == any(poisonedKey) {
				t.Fatalf("round %d: poison value sentinel in output for key %q", round, p.Key)
			}
		}
		retries += out.Counters.TaskRetries
	}
	if retries == 0 {
		t.Error("poison sweep injected no retries — the oracle exercised nothing")
	}
	auditProcRun(t, "poison", engine, spillBase)
}

// TestJobRequiresImpl pins the engine-wide job form: a Job without an Impl
// names no code any backend can run, so every backend rejects it with the
// same guidance instead of hanging or crashing a worker.
func TestJobRequiresImpl(t *testing.T) {
	for _, backend := range BackendNames() {
		engine := NewEngine(Config{Backend: backend, SpillDir: t.TempDir()})
		_, err := engine.Run(&Job{Name: "implless", Splits: makeSplits(100, 2)})
		if err == nil || !strings.Contains(err.Error(), "requires Job.Impl") {
			t.Errorf("%s: Impl-less job: err = %v, want Job.Impl guidance", backend, err)
		}
	}
}

// TestPickBackendUnknown pins the config error for a bad backend name,
// including the retired sequential "simulated" backend.
func TestPickBackendUnknown(t *testing.T) {
	for _, name := range []string{"hadoop", "simulated"} {
		engine := NewEngine(Config{Backend: name})
		_, err := engine.Run(chaosJob(100, 2, 2))
		if err == nil || !strings.Contains(err.Error(), "unknown backend") || !strings.Contains(err.Error(), "inprocess") {
			t.Fatalf("backend %q: err = %v, want the unknown-backend error with the valid-names list", name, err)
		}
	}
	if got := NewEngine(Config{}).BackendName(); got != "inprocess" {
		t.Errorf("default BackendName = %q, want inprocess", got)
	}
}
