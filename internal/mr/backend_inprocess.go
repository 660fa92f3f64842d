package mr

import (
	"errors"

	"p3cmr/internal/obs"
)

// inprocessBackend is the default execution backend: map and reduce tasks
// run as goroutines gated by the engine-wide semaphore, the shuffle merges
// in RAM through the record plane (plane.go), and buffers recycle
// through the engine pools.
type inprocessBackend struct{}

func (inprocessBackend) Name() string { return "inprocess" }

func (inprocessBackend) begin(rc *runContext) (runState, error) {
	return &inprocRun{rc: rc, states: make([]*mapState, len(rc.job.Splits))}, nil
}

// inprocRun is one in-process Run. Map task i owns states[i] (its output,
// pre-partitioned into per-reducer buffers plus the task-local key table;
// see plane.go) until the shuffle merges and recycles every state; sh holds
// the merged partition runs until release.
type inprocRun struct {
	rc     *runContext
	states []*mapState
	sh     *shuffleState
}

func (s *inprocRun) mapTask(i int) (Counters, faultCharge, error) {
	rc := s.rc
	st, c, fc, err := rc.e.runMapTask(rc.job, rc.job.Splits[i], rc.nb, rc.jobSpan, rc.cancelCh)
	s.states[i] = st
	return c, fc, err
}

// mapOnlyPairs reads bucket 0, which holds every record of a map-only job;
// the pairs own their values, so release can recycle the states.
func (s *inprocRun) mapOnlyPairs() []Pair { return mapOnlyPairs(s.states) }

// shuffle merges the per-task buffers into one contiguous run per reducer
// and recycles the map states before any reduce task starts (the barrier
// the pool contract names).
func (s *inprocRun) shuffle() {
	s.sh = s.rc.e.mergeStates(s.states, s.rc.nb, s.rc.numReducers)
	s.states = nil
}

func (s *inprocRun) emptyPartition(r int) bool { return len(s.sh.runs[r]) == 0 }

func (s *inprocRun) reduceTask(r int) ([]Pair, Counters, faultCharge, error) {
	rc := s.rc
	return rc.e.runReduceTask(rc.job, r, s.sh.runs[r], s.sh.runKeys[r], rc.jobSpan, rc.cancelCh)
}

// release recycles what the Run still holds: the map states of a map-only
// or failed Run, and the shuffle once every reduce task (and its retries,
// which re-read the immutable runs) has finished. Reducer output pairs box
// their values and reference immutable key strings, so nothing they hold
// aliases the recycled buffers.
func (s *inprocRun) release() {
	for _, st := range s.states {
		s.rc.e.pools.putMapState(st)
	}
	if s.sh != nil {
		s.rc.e.pools.putShuffle(s.sh)
	}
}

// mergeStates merges committed map states into a pooled shuffle state, in
// split order: value order within a key is therefore a deterministic
// function of the split layout, independent of Parallelism and of task
// completion order. mergeShuffle also renumbers record keys into dense
// partition-local ids in ascending key order, which is what lets the
// reduce side group without touching key strings. The merge copied every
// record out of the states, so they recycle here.
func (e *Engine) mergeStates(states []*mapState, nb, numReducers int) *shuffleState {
	sh := e.pools.getShuffle()
	mergeShuffle(sh, states, nb, numReducers)
	for _, st := range states {
		e.pools.putMapState(st)
	}
	return sh
}

// runMapTask executes one map task with retry on injected failures. The
// task's pooled mapState is acquired once for the whole attempt loop —
// retried attempts reset and reuse it (never returning it to the pool while
// the task lives) — and recycled here on failure/cancellation, when no one
// outside the task has ever observed it. On success the state transfers to
// the caller, which recycles it after the merge copies its records out.
func (e *Engine) runMapTask(job *boundJob, split *Split, nb int, jobSpan obs.SpanID, cancel <-chan struct{}) (*mapState, Counters, faultCharge, error) {
	st := e.pools.getMapState(nb)
	out, c, fc, err := runTaskAttempts(e, job, PhaseMap, split.ID, jobSpan, cancel, nil, func(attempt int, span obs.SpanID) (*mapState, Counters, float64, error) {
		ac, straggler, err := e.tryMapTask(job, split, st, nb, attempt, span, cancel)
		return st, ac, straggler, err
	})
	if err != nil {
		e.pools.putMapState(st)
		return nil, c, fc, err
	}
	return out, c, fc, nil
}

// tryMapTask runs one map attempt into st: records land pre-partitioned in
// st.buckets with task-locally interned keys (see TaskContext.emitRec),
// each charged to ShuffledBytes as it is emitted.
func (e *Engine) tryMapTask(job *boundJob, split *Split, st *mapState, nb, attempt int, span obs.SpanID, cancel <-chan struct{}) (Counters, float64, error) {
	var c Counters
	// A retried attempt starts from an empty state; attempt 0's state came
	// reset from the pool, so this only walks empty buffers.
	st.reset(false)
	straggler, failAt := e.decideFault(job.Name, PhaseMap, split.ID, attempt, split.NumRows(), span, "")
	ctx := &TaskContext{
		TaskID:      split.ID,
		Split:       split,
		ms:          st,
		counters:    &c,
		numReducers: nb,
	}
	// Sampled cancellation poll: cheap enough to leave the record loop's
	// throughput alone, frequent enough that a cancelled task yields its
	// slot within a few dozen records.
	err := mapRecords(job.NewMapper(), ctx, failAt, func(i int) error {
		if i&63 == 0 && cancelled(cancel) {
			return errTaskCancelled
		}
		return nil
	})
	if errors.Is(err, errInjectedFailure) && e.cfg.Tracer != nil {
		e.point(span, obs.PointFault, job.Name, split.ID, attempt, PhaseMap, 0, "")
	}
	return c, straggler, err
}

// runReduceTask executes one reduce task with the same retry loop as map
// tasks: a failed attempt is re-run from its immutable partition run. The
// task's pooled group scratch is shared across its attempts (each attempt
// re-scatters from the run) and recycled when the attempt loop ends —
// nothing outside the task ever sees it.
func (e *Engine) runReduceTask(job *boundJob, taskID int, run []rec, keys []string, jobSpan obs.SpanID, cancel <-chan struct{}) ([]Pair, Counters, faultCharge, error) {
	sc := e.pools.getScratch()
	out, c, fc, err := runTaskAttempts(e, job, PhaseReduce, taskID, jobSpan, cancel, nil, func(attempt int, span obs.SpanID) ([]Pair, Counters, float64, error) {
		return e.tryReduceTask(job, taskID, run, keys, sc, attempt, span, cancel)
	})
	e.pools.putScratch(sc)
	return out, c, fc, err
}

// tryReduceTask groups a partition run by key (sorted, as Hadoop
// guarantees) and invokes the reducer. Grouping is the counting sort of
// groupRun over dense partition-local ids: no key string is hashed or
// compared, and stability keeps value order deterministic (map-task order).
func (e *Engine) tryReduceTask(job *boundJob, taskID int, run []rec, keys []string, sc *groupScratch, attempt int, span obs.SpanID, cancel <-chan struct{}) ([]Pair, Counters, float64, error) {
	straggler, failAt := e.decideFault(job.Name, PhaseReduce, taskID, attempt, len(run), span, "")
	var out []Pair
	l := reduceLoop{
		ctx:     &TaskContext{TaskID: taskID, outPairs: &out},
		reducer: job.TypedReducer,
		killAt:  failAt,
		cancel:  cancel,
	}
	err := groupRun(run, keys, sc, l.group)
	if err == nil {
		err = l.commit()
	}
	if err != nil {
		if errors.Is(err, errInjectedFailure) && e.cfg.Tracer != nil {
			e.point(span, obs.PointFault, job.Name, taskID, attempt, PhaseReduce, 0, "")
		}
		return nil, l.c, straggler, err
	}
	return out, l.c, straggler, nil
}
