package mr

import (
	"errors"
	"fmt"
	"sync"

	"p3cmr/internal/obs"
)

// Backend is the execution seam under Engine.Run. The engine owns the job
// contract — validation, the job span, the map → shuffle → reduce driver
// (runContext.drive), retry budgets, fault plans, cost accounting, metrics
// — and a Backend supplies only how one Run's tasks execute: it opens a
// runState per Run, whose operations run one map task, build the shuffle,
// run one reduce task, and release the Run's resources.
//
// All backends honor the same determinism contract, pinned by the
// conformance suite (backend_conformance_test.go): for a fixed Job, fault
// plan and reducer count, the output pairs, counters, Wasted and
// ShuffledBytes are bit-identical across backends, parallelism and spill
// thresholds.
//
// The interface is sealed (its method is unexported): backends need the
// engine's internal record plane, so third-party implementations are not
// supported. Select one by name via Config.Backend.
type Backend interface {
	// Name returns the backend's registry name.
	Name() string
	// begin opens the per-Run state the driver executes the job on.
	begin(rc *runContext) (runState, error)
}

// runState is one Run's execution state on a backend. The driver calls
// mapTask concurrently for distinct splits, then (map-only jobs)
// mapOnlyPairs or (reduce jobs) shuffle once and reduceTask concurrently
// for distinct non-empty partitions, then release exactly once. Each task
// operation runs the task's whole attempt loop (runTaskAttempts) and keeps
// whatever output the next phase reads; the reduce phase hands its output
// back to the driver.
type runState interface {
	// mapTask runs the map task over job.Splits[i].
	mapTask(i int) (Counters, faultCharge, error)
	// mapOnlyPairs returns a map-only job's committed output in split
	// order.
	mapOnlyPairs() []Pair
	// shuffle groups the committed map output into reduce partitions.
	shuffle()
	// emptyPartition reports whether partition r received no records (its
	// reduce task is not launched).
	emptyPartition(r int) bool
	// reduceTask runs the reduce task over partition r.
	reduceTask(r int) ([]Pair, Counters, faultCharge, error)
	// release returns the Run's resources: pooled buffers in-process, the
	// spill directory on worker processes (the workers stay with the
	// engine's fleet until Engine.Close).
	release()
}

// BackendNames lists the selectable backends in Config.Backend order of
// preference: inprocess (default), multiprocess.
func BackendNames() []string { return []string{"inprocess", "multiprocess"} }

// pickBackend resolves a Config.Backend name. "" selects the in-process
// backend.
func pickBackend(name string) (Backend, error) {
	switch name {
	case "", "inprocess":
		return inprocessBackend{}, nil
	case "multiprocess":
		return multiprocBackend{}, nil
	default:
		return nil, fmt.Errorf("mr: unknown backend %q (have %v)", name, BackendNames())
	}
}

// runContext carries one Run's resolved parameters and cancellation
// machinery across the backend seam. It lives for exactly one Engine.Run
// call.
type runContext struct {
	e   *Engine
	job *boundJob
	// mapOnly is true when the job has no reducer; nb is the number of
	// shuffle buckets (1 for map-only jobs, numReducers otherwise).
	mapOnly     bool
	nb          int
	numReducers int
	// jobSpan is the enclosing job span (zero when tracing is off).
	jobSpan obs.SpanID
	// cancelCh closes on the first permanent task failure, which fail
	// records in err (first writer wins). err is read only after a phase
	// barrier (wg.Wait), which is what makes the unlocked read safe.
	cancelCh chan struct{}
	errOnce  sync.Once
	err      error
}

// fail records a permanent task failure and cancels the Run's other tasks
// — they notice between records, between attempts, and while queued on the
// semaphore, so a doomed job stops burning slots (Hadoop kills sibling
// attempts the same way when a job fails).
func (rc *runContext) fail(err error) {
	rc.errOnce.Do(func() {
		rc.err = err
		close(rc.cancelCh)
	})
}

// drive runs the job's map → shuffle → reduce phases on rs and returns the
// output pairs, the committed counters, the fault charge (wasted attempt
// counters + straggler seconds), and the first permanent error. Counters
// and fault charges fold in split order, then reducer order, and output
// concatenates in split (map-only) or reducer order — so job output is a
// deterministic function of the job, independent of Parallelism, task
// completion order and backend.
func (rc *runContext) drive(rs runState) ([]Pair, Counters, faultCharge, error) {
	defer rs.release()
	job := rc.job
	var counters Counters
	var fault faultCharge
	err := rc.launch(PhaseMap, len(job.Splits), nil, rs.mapTask, &counters, &fault)
	if err != nil {
		return nil, Counters{}, faultCharge{}, err
	}
	if rc.mapOnly {
		outPairs := rs.mapOnlyPairs()
		counters.OutputRecords = int64(len(outPairs))
		return outPairs, counters, fault, nil
	}

	rc.shuffle(rs, counters.ShuffledBytes)

	// Reduce tasks share the map tasks' retry budget and cancellation
	// channel: a reduce attempt re-runs from its immutable partition (see
	// Reducer contract).
	redOuts := make([][]Pair, rc.numReducers)
	err = rc.launch(PhaseReduce, rc.numReducers, rs.emptyPartition, func(r int) (Counters, faultCharge, error) {
		out, c, fc, err := rs.reduceTask(r)
		redOuts[r] = out
		return c, fc, err
	}, &counters, &fault)
	if err != nil {
		return nil, Counters{}, faultCharge{}, err
	}
	total := 0
	for r := range redOuts {
		total += len(redOuts[r])
	}
	outPairs := make([]Pair, 0, total)
	for r := range redOuts {
		outPairs = append(outPairs, redOuts[r]...)
	}
	counters.OutputRecords = int64(len(outPairs))
	return outPairs, counters, fault, nil
}

// shuffle runs rs's shuffle under its own span (Task -1, Phase "shuffle")
// carrying the job's shuffle volume — mirroring the per-phase breakdown a
// Hadoop job page shows.
func (rc *runContext) shuffle(rs runState, shuffled int64) {
	sp := obs.Open(rc.e.cfg.Tracer, obs.Start{Parent: rc.jobSpan, Kind: obs.KindTask,
		Name: rc.job.Name, Task: -1, Phase: "shuffle"})
	defer sp.End(nil, obs.End{Counters: Counters{ShuffledBytes: shuffled}})
	rs.shuffle()
}

// launch runs tasks 0..n-1 of one phase (minus those skip reports empty),
// each as a goroutine holding one engine semaphore slot, and stops
// launching once the Run is cancelled. After the barrier it returns the
// Run's first permanent error, or folds the tasks' counters and fault
// charges into counters and fault in task order. Every task writes only
// its own slot, so collection needs no mutex.
func (rc *runContext) launch(phase TaskPhase, n int, skip func(int) bool, task func(int) (Counters, faultCharge, error), counters *Counters, fault *faultCharge) error {
	e := rc.e
	taskCounters := make([]Counters, n)
	taskFaults := make([]faultCharge, n)
	var wg sync.WaitGroup
launch:
	for i := 0; i < n; i++ {
		if skip != nil && skip(i) {
			continue
		}
		select {
		case <-rc.cancelCh:
			break launch
		case e.sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-e.sem }()
			c, fc, err := task(i)
			taskFaults[i] = fc
			if err != nil {
				if !errors.Is(err, errTaskCancelled) {
					id := i
					if phase == PhaseMap {
						id = rc.job.Splits[i].ID
					}
					rc.fail(fmt.Errorf("mr: job %q %s task %d: %w", rc.job.Name, phase, id, err))
				}
				return
			}
			taskCounters[i] = c
		}(i)
	}
	wg.Wait()
	if rc.err != nil {
		return rc.err
	}
	for i := range taskCounters {
		counters.Add(taskCounters[i])
		fault.add(taskFaults[i])
	}
	return nil
}
