package mr

import (
	"errors"
	"sync"

	"p3cmr/internal/obs"
)

// inprocessBackend is the default execution backend: map and reduce tasks
// run as goroutines gated by the engine-wide semaphore, the shuffle merges
// in RAM through the record plane (plane.go), and each Run borrows its
// buffers from the engine pools.
type inprocessBackend struct{}

func (inprocessBackend) Name() string { return "inprocess" }

func (inprocessBackend) begin(rc *runContext) (runState, error) {
	return &inprocRun{rc: rc, states: make([]*mapState, len(rc.job.Splits))}, nil
}

// inprocRun is one in-process Run and the sole owner of the pooled buffers
// it borrows: map task i's state states[i] (its output, pre-partitioned
// into per-reducer buffers plus the task-local key table; see plane.go),
// the shuffle sh that merges them, and the reduce tasks' group scratches.
// Each is taken when its task or step starts, and all of them go back in
// release: nothing returns to a pool while the Run can still read it,
// retried attempts included.
type inprocRun struct {
	rc     *runContext
	states []*mapState
	sh     *shuffleState
	// mu guards sh.idle, the group scratches no running reduce task holds.
	mu sync.Mutex
}

func (s *inprocRun) mapTask(i int) (Counters, faultCharge, error) {
	rc := s.rc
	s.states[i] = rc.e.pools.getMapState(rc.nb)
	return rc.e.runMapTask(rc.job, rc.job.Splits[i], s.states[i], rc.nb, rc.jobSpan, rc.cancelCh)
}

// mapOnlyPairs reads bucket 0, which holds every record of a map-only job;
// the pairs own their values, so release can recycle the states.
func (s *inprocRun) mapOnlyPairs() []Pair { return mapOnlyPairs(s.states) }

// shuffle merges the per-task buffers into one contiguous run per reducer,
// in split order: value order within a key is therefore a deterministic
// function of the split layout, independent of Parallelism and of task
// completion order. mergeShuffle also renumbers record keys into dense
// partition-local ids in ascending key order, which is what lets the
// reduce side group without touching key strings.
func (s *inprocRun) shuffle() {
	s.sh = s.rc.e.pools.getShuffle()
	mergeShuffle(s.sh, s.states, s.rc.nb, s.rc.numReducers)
}

func (s *inprocRun) emptyPartition(r int) bool { return len(s.sh.runs[r]) == 0 }

// reduceTask runs reducer r in a group scratch the Run lends it for the
// task's length. A scratch grows to its partition's record count, so
// scratches pass from task to task: the Run borrows no more of them than
// reduce tasks run at once, whatever the reducer count.
func (s *inprocRun) reduceTask(r int) ([]Pair, Counters, faultCharge, error) {
	rc := s.rc
	sc := s.takeScratch()
	defer s.idleScratch(sc)
	return rc.e.runReduceTask(rc.job, r, s.sh.runs[r], s.sh.runKeys[r], sc, rc.jobSpan, rc.cancelCh)
}

// takeScratch lends a reduce task an idle group scratch of the Run,
// borrowing one more from the pool when every scratch is in use.
func (s *inprocRun) takeScratch() *groupScratch {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sh.idle) == 0 {
		s.sh.idle = append(s.sh.idle, nil)
		s.sh.idle[0] = s.rc.e.pools.getScratch()
	}
	sc := s.sh.idle[len(s.sh.idle)-1]
	s.sh.idle = s.sh.idle[:len(s.sh.idle)-1]
	return sc
}

// idleScratch takes back the scratch a reduce task is done with.
func (s *inprocRun) idleScratch(sc *groupScratch) {
	s.mu.Lock()
	s.sh.idle = append(s.sh.idle, sc)
	s.mu.Unlock()
}

// release returns every buffer the Run borrowed, once all its tasks (and
// their retries, which reset their state or re-read the immutable runs)
// have finished, so every scratch is idle again. Output pairs box their
// values and reference immutable key strings, so nothing they hold aliases
// the recycled buffers.
func (s *inprocRun) release() {
	p := s.rc.e.pools
	for _, st := range s.states {
		p.putMapState(st)
	}
	if s.sh != nil {
		for _, sc := range s.sh.idle {
			p.putScratch(sc)
		}
		p.putShuffle(s.sh)
	}
}

// runMapTask executes one map task into st with retry on injected
// failures: every attempt resets st in place and refills it, so a failed
// attempt's partial output never reaches the shuffle.
func (e *Engine) runMapTask(job *boundJob, split *Split, st *mapState, nb int, jobSpan obs.SpanID, cancel <-chan struct{}) (Counters, faultCharge, error) {
	_, c, fc, err := runTaskAttempts(e, job, PhaseMap, split.ID, jobSpan, cancel, nil, func(attempt int, span obs.SpanID) (struct{}, Counters, float64, error) {
		ac, straggler, err := e.tryMapTask(job, split, st, nb, attempt, span, cancel)
		return struct{}{}, ac, straggler, err
	})
	return c, fc, err
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
	if errors.Is(err, errInjectedFailure) {
		e.point(span, obs.PointFault, job.Name, split.ID, attempt, PhaseMap, 0, "")
	}
	return c, straggler, err
}

// runReduceTask executes one reduce task with the same retry loop as map
// tasks: a failed attempt is re-run from its immutable partition run,
// re-scattering into the same group scratch sc.
func (e *Engine) runReduceTask(job *boundJob, taskID int, run []rec, keys []string, sc *groupScratch, jobSpan obs.SpanID, cancel <-chan struct{}) ([]Pair, Counters, faultCharge, error) {
	return runTaskAttempts(e, job, PhaseReduce, taskID, jobSpan, cancel, nil, func(attempt int, span obs.SpanID) ([]Pair, Counters, float64, error) {
		return e.tryReduceTask(job, taskID, run, keys, sc, attempt, span, cancel)
	})
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
		if errors.Is(err, errInjectedFailure) {
			e.point(span, obs.PointFault, job.Name, taskID, attempt, PhaseReduce, 0, "")
		}
		return nil, l.c, straggler, err
	}
	return out, l.c, straggler, nil
}
