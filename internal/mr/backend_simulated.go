package mr

import (
	"errors"
	"fmt"
	"time"

	"p3cmr/internal/obs"
)

// simulatedBackend is the sequential reference backend behind the
// cost-model experiments (the paper's Fig. 7 runtime-shape study): tasks
// execute one at a time on the calling goroutine, in split/partition order,
// with no semaphore, no pooling and no concurrency at all. Buffers are
// freshly allocated per job, so a miscompare against this backend isolates
// pooling/concurrency bugs from logic bugs — it is the differential-testing
// oracle of the conformance suite as much as the cost-model vehicle.
//
// It shares the attempt loop, fault decision sites and merge/group code
// with the in-process backend, so counters, retries, straggler charges and
// output are bit-identical to it by construction — the conformance suite
// pins that this stays true.
type simulatedBackend struct{}

func (simulatedBackend) Name() string { return "simulated" }

func (simulatedBackend) execute(rc *runContext) ([]Pair, Counters, faultCharge, error) {
	e, job := rc.e, rc.job
	tr := e.cfg.Tracer
	mapOnly, nb, numReducers := rc.mapOnly, rc.nb, rc.numReducers
	jobSpan, cancelCh := rc.jobSpan, rc.cancelCh

	// --- Map phase, sequential ----------------------------------------------
	mapStates := make([]*mapState, len(job.Splits))
	var counters Counters
	var fault faultCharge
	for i, split := range job.Splits {
		st := new(mapState)
		st.ready(nb)
		_, c, fc, err := runTaskAttempts(e, job, PhaseMap, split.ID, jobSpan, cancelCh, nil,
			func(attempt int, span obs.SpanID) (*mapState, Counters, float64, error) {
				ac, straggler, err := e.tryMapTask(job, split, st, nb, attempt, span, cancelCh)
				return st, ac, straggler, err
			})
		fault.add(fc)
		if err != nil {
			err = fmt.Errorf("mr: job %q map task %d: %w", job.Name, split.ID, err)
			rc.setErr(err)
			return nil, Counters{}, faultCharge{}, err
		}
		mapStates[i] = st
		counters.Add(c)
	}

	var outPairs []Pair
	if mapOnly {
		total := 0
		for _, st := range mapStates {
			total += len(st.buckets[0])
		}
		outPairs = make([]Pair, 0, total)
		for _, st := range mapStates {
			for i := range st.buckets[0] {
				r := &st.buckets[0][i]
				outPairs = append(outPairs, Pair{Key: st.tab.keys[r.key], Value: r.value()})
			}
		}
		counters.OutputRecords = int64(len(outPairs))
		return outPairs, counters, fault, nil
	}

	// --- Shuffle ------------------------------------------------------------
	var shufSpan obs.SpanID
	var shufStart time.Time
	if tr != nil {
		shufSpan = obs.NewSpanID()
		tr.Begin(obs.Start{ID: shufSpan, Parent: jobSpan, Kind: obs.KindTask,
			Name: job.Name, Task: -1, Phase: "shuffle"})
		shufStart = obs.Now()
	}
	sh := new(shuffleState)
	mergeShuffle(sh, mapStates, nb, numReducers)
	if tr != nil {
		tr.End(obs.End{ID: shufSpan, Kind: obs.KindTask, Name: job.Name,
			Task: -1, Phase: "shuffle", Outcome: obs.OutcomeOK,
			RealSeconds: obs.Since(shufStart).Seconds(),
			Counters:    Counters{ShuffledBytes: counters.ShuffledBytes}})
	}

	// --- Reduce phase, sequential in partition order ------------------------
	sc := new(groupScratch)
	outPairs = make([]Pair, 0)
	for r := 0; r < numReducers; r++ {
		if len(sh.runs[r]) == 0 {
			continue
		}
		run, keys := sh.runs[r], sh.runKeys[r]
		pout, c, fc, err := runTaskAttempts(e, job, PhaseReduce, r, jobSpan, cancelCh, nil,
			func(attempt int, span obs.SpanID) ([]Pair, Counters, float64, error) {
				return e.tryReduceTask(job, r, run, keys, sc, attempt, span, cancelCh)
			})
		fault.add(fc)
		if err != nil {
			if !errors.Is(err, errTaskCancelled) {
				err = fmt.Errorf("mr: job %q reduce task %d: %w", job.Name, r, err)
			}
			rc.setErr(err)
			return nil, Counters{}, faultCharge{}, err
		}
		counters.Add(c)
		outPairs = append(outPairs, pout...)
	}
	counters.OutputRecords = int64(len(outPairs))
	return outPairs, counters, fault, nil
}
