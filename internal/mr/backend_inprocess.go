package mr

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"p3cmr/internal/obs"
)

// inprocessBackend is the default execution backend: map and reduce tasks
// run as goroutines gated by the engine-wide semaphore, the shuffle merges
// in RAM through the record plane (plane.go), and buffers recycle
// through the engine pools. This is the PR 1–6 engine core, extracted
// behind the Backend seam unchanged.
type inprocessBackend struct{}

func (inprocessBackend) Name() string { return "inprocess" }

func (inprocessBackend) execute(rc *runContext) ([]Pair, Counters, faultCharge, error) {
	e, job := rc.e, rc.job
	tr := e.cfg.Tracer
	mapOnly, nb, numReducers := rc.mapOnly, rc.nb, rc.numReducers
	jobSpan, cancelCh := rc.jobSpan, rc.cancelCh

	// --- Map phase -----------------------------------------------------------
	// Lock-free collection: every map task owns one slot of mapStates /
	// mapCounters (single writer per slot, synchronized by wg.Wait's
	// happens-before edge), so the shuffle needs no global mutex. Task i's
	// slot holds its output pre-partitioned into per-reducer buffers
	// plus the task-local key table (see plane.go).
	mapStates := make([]*mapState, len(job.Splits))
	mapCounters := make([]Counters, len(job.Splits))
	mapFaults := make([]faultCharge, len(job.Splits))
	var wg sync.WaitGroup

mapLaunch:
	for i, split := range job.Splits {
		select {
		case <-cancelCh:
			break mapLaunch
		case e.sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int, split *Split) {
			defer wg.Done()
			defer func() { <-e.sem }()
			st, c, fc, err := e.runMapTask(job, split, nb, jobSpan, cancelCh)
			mapFaults[i] = fc
			if err != nil {
				if !errors.Is(err, errTaskCancelled) {
					rc.setErr(fmt.Errorf("mr: job %q map task %d: %w", job.Name, split.ID, err))
				}
				return
			}
			mapStates[i] = st
			mapCounters[i] = c
		}(i, split)
	}
	wg.Wait()
	if err := rc.firstErr(); err != nil {
		// Committed states of sibling tasks were never merged; recycle them.
		for _, st := range mapStates {
			e.pools.putMapState(st)
		}
		return nil, Counters{}, faultCharge{}, err
	}

	var counters Counters
	var fault faultCharge
	for i := range mapCounters {
		counters.Add(mapCounters[i])
		fault.add(mapFaults[i])
	}

	if mapOnly {
		// Bucket 0 holds every record of a map-only job; the pairs own their
		// values, so the states recycle right away.
		outPairs := mapOnlyPairs(mapStates)
		for _, st := range mapStates {
			e.pools.putMapState(st)
		}
		counters.OutputRecords = int64(len(outPairs))
		return outPairs, counters, fault, nil
	}

	// The shuffle/merge step gets its own span (Task -1, Phase "shuffle")
	// carrying the job's shuffle volume — mirroring the per-phase
	// breakdown a Hadoop job page shows.
	var shufSpan obs.SpanID
	var shufStart time.Time
	if tr != nil {
		shufSpan = obs.NewSpanID()
		tr.Begin(obs.Start{ID: shufSpan, Parent: jobSpan, Kind: obs.KindTask,
			Name: job.Name, Task: -1, Phase: "shuffle"})
		shufStart = obs.Now()
	}

	// Merge the per-task buffers into one contiguous run per reducer, in
	// split order: value order within a key is therefore a deterministic
	// function of the split layout, independent of Parallelism and of
	// task completion order. mergeShuffle also renumbers record keys into
	// dense partition-local ids in ascending key order, which is what
	// lets the reduce side group without touching key strings.
	sh := e.pools.getShuffle()
	mergeShuffle(sh, mapStates, nb, numReducers)
	// The merge copied every record out of the task states; recycle them
	// before reduce tasks start (the barrier the pool contract names).
	for _, st := range mapStates {
		e.pools.putMapState(st)
	}
	if tr != nil {
		tr.End(obs.End{ID: shufSpan, Kind: obs.KindTask, Name: job.Name,
			Task: -1, Phase: "shuffle", Outcome: obs.OutcomeOK,
			RealSeconds: obs.Since(shufStart).Seconds(),
			Counters:    Counters{ShuffledBytes: counters.ShuffledBytes}})
	}

	// --- Shuffle + reduce phase ------------------------------------------
	// Same single-writer-per-slot scheme: reducer r writes redOuts[r],
	// and the final concatenation in reducer order keeps job output
	// deterministic without a collection mutex. Reduce tasks share the
	// map tasks' retry budget and cancellation channel: a reduce attempt
	// re-runs from its immutable partition run (see Reducer contract).
	redOuts := make([][]Pair, numReducers)
	redCounters := make([]Counters, numReducers)
	redFaults := make([]faultCharge, numReducers)
	var rwg sync.WaitGroup
redLaunch:
	for r := 0; r < numReducers; r++ {
		if len(sh.runs[r]) == 0 {
			continue
		}
		select {
		case <-cancelCh:
			break redLaunch
		case e.sem <- struct{}{}:
		}
		rwg.Add(1)
		go func(r int, run []rec, keys []string) {
			defer rwg.Done()
			defer func() { <-e.sem }()
			pout, c, fc, err := e.runReduceTask(job, r, run, keys, jobSpan, cancelCh)
			redFaults[r] = fc
			if err != nil {
				if !errors.Is(err, errTaskCancelled) {
					rc.setErr(fmt.Errorf("mr: job %q reduce task %d: %w", job.Name, r, err))
				}
				return
			}
			redOuts[r] = pout
			redCounters[r] = c
		}(r, sh.runs[r], sh.runKeys[r])
	}
	rwg.Wait()
	// All reduce tasks (and their retries, which re-read the immutable
	// runs) are finished: the shuffle state can recycle. Reducer output
	// pairs box their values and reference immutable key strings, so
	// nothing they hold aliases the recycled buffers.
	e.pools.putShuffle(sh)
	if err := rc.firstErr(); err != nil {
		return nil, Counters{}, faultCharge{}, err
	}
	total := 0
	for r := range redOuts {
		counters.Add(redCounters[r])
		fault.add(redFaults[r])
		total += len(redOuts[r])
	}
	outPairs := make([]Pair, 0, total)
	for r := range redOuts {
		outPairs = append(outPairs, redOuts[r]...)
	}
	counters.OutputRecords = int64(len(outPairs))
	return outPairs, counters, fault, nil
}
