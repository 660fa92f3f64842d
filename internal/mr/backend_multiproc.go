package mr

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"p3cmr/internal/obs"
)

// multiprocBackend executes tasks on worker OS processes: re-exec'd copies
// of the current binary (see worker.go) fed framed task descriptions over
// pipes. Map output spills to disk as sorted runs and reduce tasks k-way
// merge them back (spill.go) — the shuffle is out-of-core, bounded by
// Config.SpillThresholdBytes of map-side RAM per worker.
//
// Scheduling stays in the driver and deliberately reuses the in-process
// machinery: the same semaphore-gated launch loops, the same
// runTaskAttempts retry loop, the same FaultPlan decision points decided
// driver-side and shipped to the worker as exact kill indices. An injected
// failure therefore kills a *real* process (the worker SIGKILLs itself
// after flushing its partial counters), yet retries, Wasted accounting,
// counters and output remain bit-identical to the in-process backend —
// which is what the cross-backend conformance suite pins.
type multiprocBackend struct{}

func (multiprocBackend) Name() string { return "multiprocess" }

// ProcStats summarizes the worker-process side of the engine's most recent
// multiprocess run: fleet size and deaths, plus out-of-core shuffle volume.
type ProcStats struct {
	// WorkersSpawned / WorkersKilled count worker processes started and
	// reaped dead mid-run (injected or real crashes). WorkerPIDs lists
	// every spawned worker's OS pid in spawn order.
	WorkersSpawned int
	WorkersKilled  int
	WorkerPIDs     []int
	// SpillFiles counts spill files of committed map attempts (files of
	// killed attempts are swept with the run directory); Segments the
	// sorted runs inside them; MidTaskSpills the threshold-triggered
	// (out-of-core) spill passes; SpilledBytes the total committed
	// segment bytes; MergedSegments the segments handed to reduce tasks.
	SpillFiles     int
	Segments       int
	MidTaskSpills  int
	SpilledBytes   int64
	MergedSegments int
	// TelemetryEvents counts worker-trace events folded into the driver's
	// span stream (0 on telemetry-off runs).
	TelemetryEvents int
}

// LastProcStats returns the ProcStats of the engine's most recent
// multiprocess Run, and whether one has completed.
func (e *Engine) LastProcStats() (ProcStats, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lastProc == nil {
		return ProcStats{}, false
	}
	return *e.lastProc, true
}

// pointW is Engine.point with a worker attribution, for spans and events
// the multiprocess backend can pin to a worker process.
func (e *Engine) pointW(span obs.SpanID, kind obs.PointKind, name string, task, attempt int, phase TaskPhase, seconds float64, worker string) {
	//lint:allow tracenil every caller gates on e.cfg.Tracer != nil before paying for this call's arguments
	e.cfg.Tracer.Point(obs.Point{Span: span, Kind: kind, Name: name,
		Task: task, Attempt: attempt, Phase: phase.String(), Seconds: seconds, Worker: worker})
}

// workerProc is one live worker process and its two protocol pipes. A
// worker is owned by at most one task goroutine at a time (acquire /
// release), so its streams need no locking.
type workerProc struct {
	cmd  *exec.Cmd
	pid  int
	name string
	in   *os.File // control pipe, driver write end
	res  *os.File // result pipe, driver read end
	bw   *bufio.Writer
	br   *bufio.Reader
	// jobSent: this worker has received the run's job frame.
	jobSent bool
	// dead: reaped after a mid-task death; excluded from teardown shutdown.
	dead     bool
	waitOnce sync.Once
	waitErr  error
	// Clock alignment (telemetry runs only): helloAt is the driver time at
	// which the worker's post-hello TelClock frame arrived; helloMono the
	// worker-epoch seconds it carried. alignTime maps any worker timestamp
	// onto the driver clock; the residual error is the one-way pipe latency.
	helloAt   time.Time
	helloMono float64
}

// alignTime maps a worker-epoch timestamp (seconds) onto driver time.
func (w *workerProc) alignTime(s float64) time.Time {
	return w.helloAt.Add(time.Duration((s - w.helloMono) * float64(time.Second)))
}

// readClock consumes the worker's post-hello telemetry frame and records
// the clock-alignment pair. Only called on telemetry-enabled runs.
func (w *workerProc) readClock() error {
	typ, data, err := readFrame(w.br)
	at := obs.Now()
	if err != nil {
		return err
	}
	if typ != fTelemetry {
		return fmt.Errorf("frame 0x%02x after hello, want telemetry clock", typ)
	}
	var tf telemetryFrame
	if err := decodeFrame(data, &tf); err != nil {
		return err
	}
	for _, ev := range tf.Events {
		if ev.Ev == obs.TelClock {
			w.helloAt, w.helloMono = at, ev.S
			return nil
		}
	}
	return errors.New("telemetry clock frame carries no TelClock event")
}

// emitTelemetry folds one worker telemetry frame into the driver's span
// stream: begins open KindStep spans under the live attempt span (worker-
// local IDs remapped to process-unique SpanIDs — the worker's flush
// discipline guarantees a frame carries complete begin/end sets, so the
// remap table is per-frame), ends stamp Worker and outcome, points attach
// to the attempt span. Every timestamp is aligned onto the driver clock, so
// the sinks see one coherent forest.
func (p *procRun) emitTelemetry(w *workerProc, span obs.SpanID, task, attempt int, data []byte) error {
	var tf telemetryFrame
	if err := decodeFrame(data, &tf); err != nil {
		return err
	}
	tr := p.e.cfg.Tracer
	if tr == nil {
		return nil
	}
	ids := make(map[int64]obs.SpanID, 4)
	for i := range tf.Events {
		ev := &tf.Events[i]
		switch ev.Ev {
		case obs.TelBegin:
			id := obs.NewSpanID()
			ids[ev.ID] = id
			//lint:allow spanbalance replay fold: the End arrives as a later TelEnd event in the same or a later frame, and the worker's AbortOpen-before-drain discipline guarantees no begin is left dangling
			tr.Begin(obs.Start{ID: id, Parent: span, Kind: obs.KindStep,
				Name: ev.Name, Task: task, Attempt: attempt, Phase: ev.Phase,
				At: w.alignTime(ev.S)})
		case obs.TelEnd:
			id, ok := ids[ev.ID]
			if !ok {
				continue
			}
			tr.End(obs.End{ID: id, Kind: obs.KindStep, Name: ev.Name,
				Task: task, Attempt: attempt, Phase: ev.Phase,
				Outcome: obs.Outcome(ev.Outcome), Err: ev.Err,
				RealSeconds: ev.RealS, Worker: w.name, At: w.alignTime(ev.S)})
		case obs.TelPoint:
			tr.Point(obs.Point{Span: span, Kind: obs.PointKind(ev.PKind),
				Name: p.job.Name, Task: task, Attempt: attempt, Phase: ev.Phase,
				Seconds: ev.Seconds, Worker: w.name, Sample: ev.Sample,
				At: w.alignTime(ev.S)})
		}
	}
	p.mu.Lock()
	p.stats.TelemetryEvents += len(tf.Events)
	p.mu.Unlock()
	return nil
}

// wait reaps the child exactly once.
func (w *workerProc) wait() error {
	w.waitOnce.Do(func() { w.waitErr = w.cmd.Wait() })
	return w.waitErr
}

// mapResult is a committed map attempt's driver-side output: either spill
// segments (shuffling jobs) or streamed pairs (map-only jobs).
type mapResult struct {
	pairs     []Pair
	segs      []segmentRef
	midSpills int
}

// procRun is the per-Run state of the multiprocess backend: the worker
// fleet, the spill directory, and the pre-encoded job frame.
type procRun struct {
	e   *Engine
	job *boundJob
	dir string
	exe string
	jf  jobFrame
	// tel enables worker telemetry (driver has a Tracer); telSample is the
	// sampler cadence shipped to workers via telemetryEnv.
	tel       bool
	telSample time.Duration

	mu    sync.Mutex
	idle  []*workerProc
	all   []*workerProc
	stats ProcStats
}

// newProcRun creates the run's spill directory and pre-encodes the job
// frame.
func newProcRun(rc *runContext) (*procRun, error) {
	e, job := rc.e, rc.job
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("mr: multiprocess backend: resolve executable: %w", err)
	}
	dir, err := os.MkdirTemp(e.cfg.SpillDir, "p3cmr-spill-*")
	if err != nil {
		return nil, fmt.Errorf("mr: multiprocess backend: spill dir: %w", err)
	}
	telSample := e.cfg.TelemetrySample
	if telSample <= 0 {
		telSample = 250 * time.Millisecond
	}
	p := &procRun{
		e: e, job: job, dir: dir, exe: exe,
		tel: e.cfg.Tracer != nil, telSample: telSample,
		jf: jobFrame{
			Name:        job.Name,
			Impl:        job.Impl,
			Spec:        job.Spec,
			NumReducers: job.NumReducers,
			NB:          rc.nb,
			MapOnly:     rc.mapOnly,
			Poison:      e.cfg.DebugPoisonPools,
			SpillDir:    dir,
			SpillLimit:  resolveSpillThreshold(e.cfg.SpillThresholdBytes),
		},
	}
	return p, nil
}

// spawn starts one worker process, wiring the control pipe to its fd 3 and
// the result pipe to its fd 4, and waits for its hello frame.
func (p *procRun) spawn() (*workerProc, error) {
	ctlR, ctlW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	resR, resW, err := os.Pipe()
	if err != nil {
		ctlR.Close()
		ctlW.Close()
		return nil, err
	}
	cmd := exec.Command(p.exe)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	if p.tel {
		cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d", telemetryEnv, p.telSample.Milliseconds()))
	}
	cmd.ExtraFiles = []*os.File{ctlR, resW} // child fds 3, 4
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		ctlR.Close()
		ctlW.Close()
		resR.Close()
		resW.Close()
		return nil, fmt.Errorf("mr: spawn worker: %w", err)
	}
	// The child holds its own copies of the pipe ends now.
	ctlR.Close()
	resW.Close()
	w := &workerProc{
		cmd: cmd, in: ctlW, res: resR,
		bw: bufio.NewWriterSize(ctlW, 256<<10),
		br: bufio.NewReaderSize(resR, 256<<10),
	}
	typ, data, err := readFrame(w.br)
	if err == nil && typ != fHello {
		err = fmt.Errorf("first frame 0x%02x, want hello", typ)
	}
	var hello helloFrame
	if err == nil {
		err = decodeFrame(data, &hello)
	}
	if err == nil && p.tel {
		// Telemetry handshake: the worker follows hello with a TelClock
		// frame; pairing its worker-epoch reading with the driver receive
		// time calibrates alignTime for every later event.
		err = w.readClock()
	}
	if err != nil {
		ctlW.Close()
		resR.Close()
		cmd.Process.Kill()
		w.wait()
		return nil, fmt.Errorf("mr: worker handshake: %w (is MaybeWorkerProcess called first thing in main?)", err)
	}
	w.pid = hello.PID
	w.name = fmt.Sprintf("w%d", hello.PID)
	p.mu.Lock()
	p.all = append(p.all, w)
	p.stats.WorkersSpawned++
	p.stats.WorkerPIDs = append(p.stats.WorkerPIDs, w.pid)
	p.mu.Unlock()
	return w, nil
}

// acquire hands out an idle worker, spawning one when none is free. The
// fleet therefore sizes itself to the engine semaphore's concurrency.
func (p *procRun) acquire() (*workerProc, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return w, nil
	}
	p.mu.Unlock()
	return p.spawn()
}

func (p *procRun) release(w *workerProc) {
	p.mu.Lock()
	p.idle = append(p.idle, w)
	p.mu.Unlock()
}

// reap collects a worker that died mid-task (injected self-kill or a real
// crash): closes its pipes and waits on the corpse so nothing is orphaned.
func (p *procRun) reap(w *workerProc) {
	w.dead = true
	w.in.Close()
	w.res.Close()
	w.wait()
	p.mu.Lock()
	p.stats.WorkersKilled++
	p.mu.Unlock()
}

// teardown shuts the fleet down — closing each live worker's control pipe
// (the worker's clean-exit signal) with a bounded grace before a hard kill
// — then sweeps the spill directory and publishes ProcStats.
func (p *procRun) teardown() {
	p.mu.Lock()
	workers := p.all
	p.all, p.idle = nil, nil
	stats := p.stats
	p.mu.Unlock()
	for _, w := range workers {
		if w.dead {
			continue
		}
		w.bw.Flush()
		w.in.Close()
		done := make(chan struct{})
		go func(w *workerProc) {
			w.wait()
			close(done)
		}(w)
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			w.cmd.Process.Kill()
			<-done
		}
		w.res.Close()
	}
	os.RemoveAll(p.dir)
	e := p.e
	e.mu.Lock()
	e.lastProc = &stats
	e.mu.Unlock()
}

// sendTask ships the job frame (once per worker) and one task frame.
func (p *procRun) sendTask(w *workerProc, typ byte, frame any) error {
	if !w.jobSent {
		if err := writeFrame(w.bw, fJob, p.jf); err != nil {
			return err
		}
		w.jobSent = true
	}
	if err := writeFrame(w.bw, typ, frame); err != nil {
		return err
	}
	return w.bw.Flush()
}

// runMapTask is the multiprocess mirror of Engine.runMapTask: the same
// retry loop, with each attempt bound to a worker process.
func (p *procRun) runMapTask(split *Split, jobSpan obs.SpanID, cancel <-chan struct{}) (mapResult, Counters, faultCharge, error) {
	var cur string
	return runTaskAttempts(p.e, p.job, PhaseMap, split.ID, jobSpan, cancel,
		func() string { return cur },
		func(attempt int, span obs.SpanID) (mapResult, Counters, float64, error) {
			w, err := p.acquire()
			if err != nil {
				return mapResult{}, Counters{}, 0, err
			}
			cur = w.name
			return p.mapAttempt(w, split, attempt, span)
		})
}

// mapAttempt runs one map attempt on w. The fault decision happens here, in
// the driver, at the same plan decision point as tryMapTask, and ships to
// the worker as an exact kill index, so a multiprocess run consumes the
// FaultPlan identically to an in-process one.
func (p *procRun) mapAttempt(w *workerProc, split *Split, attempt int, span obs.SpanID) (mapResult, Counters, float64, error) {
	e, job := p.e, p.job
	var straggler float64
	killAt := -1
	if e.cfg.Faults != nil {
		d := e.cfg.Faults.Decide(job.Name, PhaseMap, split.ID, attempt)
		straggler = d.StragglerSeconds
		if straggler > 0 && e.cfg.Tracer != nil {
			e.pointW(span, obs.PointStraggler, job.Name, split.ID, attempt, PhaseMap, straggler, w.name)
		}
		if d.Fail {
			killAt = failIndex(d.FailFrac, split.NumRows())
		}
	}
	err := p.sendTask(w, fMapTask, mapTaskFrame{
		Task: split.ID, Attempt: attempt,
		Offset: split.Offset, Dim: split.Dim, Rows: split.Rows,
		KillAt: killAt,
	})
	if err != nil {
		p.reap(w)
		return mapResult{}, Counters{}, straggler, errInjectedFailure
	}

	var res mapResult
	for {
		typ, data, err := readFrame(w.br)
		if err != nil {
			// The worker vanished without a dying frame: a real crash. Reap
			// it and retry the attempt; its counters are unknown, so the
			// charge is the retry itself, not wasted counters.
			p.reap(w)
			return mapResult{}, Counters{}, straggler, errInjectedFailure
		}
		switch typ {
		case fPairs:
			var pf pairsFrame
			if err := decodeFrame(data, &pf); err != nil {
				p.reap(w)
				return mapResult{}, Counters{}, straggler, fmt.Errorf("mr: worker %s: %w", w.name, err)
			}
			res.pairs, err = decodePairs(res.pairs, pf.Data)
			if err != nil {
				p.reap(w)
				return mapResult{}, Counters{}, straggler, fmt.Errorf("mr: worker %s: %w", w.name, err)
			}
		case fTelemetry:
			if err := p.emitTelemetry(w, span, split.ID, attempt, data); err != nil {
				p.reap(w)
				return mapResult{}, Counters{}, straggler, fmt.Errorf("mr: worker %s: %w", w.name, err)
			}
		case fMapDone:
			var df mapDoneFrame
			if err := decodeFrame(data, &df); err != nil {
				p.reap(w)
				return mapResult{}, Counters{}, straggler, fmt.Errorf("mr: worker %s: %w", w.name, err)
			}
			res.segs = df.Segments
			res.midSpills = df.MidSpills
			p.release(w)
			return res, df.Counters, straggler, nil
		case fDying:
			var df dyingFrame
			if err := decodeFrame(data, &df); err != nil {
				p.reap(w)
				return mapResult{}, Counters{}, straggler, errInjectedFailure
			}
			if e.cfg.Tracer != nil {
				e.pointW(span, obs.PointFault, job.Name, split.ID, attempt, PhaseMap, 0, w.name)
			}
			p.reap(w)
			return mapResult{}, df.Counters, straggler, errInjectedFailure
		case fTaskErr:
			var ef errFrame
			if err := decodeFrame(data, &ef); err != nil {
				p.reap(w)
				return mapResult{}, Counters{}, straggler, fmt.Errorf("mr: worker %s: %w", w.name, err)
			}
			p.release(w)
			return mapResult{}, Counters{}, straggler, errors.New(ef.Msg)
		default:
			p.reap(w)
			return mapResult{}, Counters{}, straggler, fmt.Errorf("mr: worker %s: unexpected frame 0x%02x", w.name, typ)
		}
	}
}

// runReduceTask mirrors Engine.runReduceTask over a worker process.
func (p *procRun) runReduceTask(taskID int, segs []segmentRef, records int64, jobSpan obs.SpanID, cancel <-chan struct{}) ([]Pair, Counters, faultCharge, error) {
	var cur string
	return runTaskAttempts(p.e, p.job, PhaseReduce, taskID, jobSpan, cancel,
		func() string { return cur },
		func(attempt int, span obs.SpanID) ([]Pair, Counters, float64, error) {
			w, err := p.acquire()
			if err != nil {
				return nil, Counters{}, 0, err
			}
			cur = w.name
			return p.reduceAttempt(w, taskID, segs, records, attempt, span)
		})
}

// reduceAttempt runs one reduce attempt on w. The kill threshold is the
// same consumed-records index tryReduceTask derives from the plan.
func (p *procRun) reduceAttempt(w *workerProc, taskID int, segs []segmentRef, records int64, attempt int, span obs.SpanID) ([]Pair, Counters, float64, error) {
	e, job := p.e, p.job
	var straggler float64
	killAt := -1
	if e.cfg.Faults != nil {
		d := e.cfg.Faults.Decide(job.Name, PhaseReduce, taskID, attempt)
		straggler = d.StragglerSeconds
		if straggler > 0 && e.cfg.Tracer != nil {
			e.pointW(span, obs.PointStraggler, job.Name, taskID, attempt, PhaseReduce, straggler, w.name)
		}
		if d.Fail {
			killAt = failIndex(d.FailFrac, int(records))
		}
	}
	err := p.sendTask(w, fReduceTask, reduceTaskFrame{
		Task: taskID, Attempt: attempt, KillAt: killAt,
		Segments: segs, TotalRecords: records,
	})
	if err != nil {
		p.reap(w)
		return nil, Counters{}, straggler, errInjectedFailure
	}

	var pairs []Pair
	for {
		typ, data, err := readFrame(w.br)
		if err != nil {
			p.reap(w)
			return nil, Counters{}, straggler, errInjectedFailure
		}
		switch typ {
		case fPairs:
			var pf pairsFrame
			if err := decodeFrame(data, &pf); err != nil {
				p.reap(w)
				return nil, Counters{}, straggler, fmt.Errorf("mr: worker %s: %w", w.name, err)
			}
			pairs, err = decodePairs(pairs, pf.Data)
			if err != nil {
				p.reap(w)
				return nil, Counters{}, straggler, fmt.Errorf("mr: worker %s: %w", w.name, err)
			}
		case fTelemetry:
			if err := p.emitTelemetry(w, span, taskID, attempt, data); err != nil {
				p.reap(w)
				return nil, Counters{}, straggler, fmt.Errorf("mr: worker %s: %w", w.name, err)
			}
		case fReduceDone:
			var df doneFrame
			if err := decodeFrame(data, &df); err != nil {
				p.reap(w)
				return nil, Counters{}, straggler, fmt.Errorf("mr: worker %s: %w", w.name, err)
			}
			p.release(w)
			return pairs, df.Counters, straggler, nil
		case fDying:
			var df dyingFrame
			if err := decodeFrame(data, &df); err != nil {
				p.reap(w)
				return nil, Counters{}, straggler, errInjectedFailure
			}
			if e.cfg.Tracer != nil {
				e.pointW(span, obs.PointFault, job.Name, taskID, attempt, PhaseReduce, 0, w.name)
			}
			p.reap(w)
			return nil, df.Counters, straggler, errInjectedFailure
		case fTaskErr:
			var ef errFrame
			if err := decodeFrame(data, &ef); err != nil {
				p.reap(w)
				return nil, Counters{}, straggler, fmt.Errorf("mr: worker %s: %w", w.name, err)
			}
			p.release(w)
			return nil, Counters{}, straggler, errors.New(ef.Msg)
		default:
			p.reap(w)
			return nil, Counters{}, straggler, fmt.Errorf("mr: worker %s: unexpected frame 0x%02x", w.name, typ)
		}
	}
}

func (multiprocBackend) execute(rc *runContext) ([]Pair, Counters, faultCharge, error) {
	e, job := rc.e, rc.job
	tr := e.cfg.Tracer
	p, err := newProcRun(rc)
	if err != nil {
		return nil, Counters{}, faultCharge{}, err
	}
	defer p.teardown()

	// --- Map phase: same launch loop and slot scheme as in-process -------
	mapRes := make([]mapResult, len(job.Splits))
	mapCounters := make([]Counters, len(job.Splits))
	mapFaults := make([]faultCharge, len(job.Splits))
	var wg sync.WaitGroup
mapLaunch:
	for i, split := range job.Splits {
		select {
		case <-rc.cancelCh:
			break mapLaunch
		case e.sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int, split *Split) {
			defer wg.Done()
			defer func() { <-e.sem }()
			res, c, fc, err := p.runMapTask(split, rc.jobSpan, rc.cancelCh)
			mapFaults[i] = fc
			if err != nil {
				if !errors.Is(err, errTaskCancelled) {
					rc.setErr(fmt.Errorf("mr: job %q map task %d: %w", job.Name, split.ID, err))
				}
				return
			}
			mapRes[i] = res
			mapCounters[i] = c
		}(i, split)
	}
	wg.Wait()
	if err := rc.firstErr(); err != nil {
		return nil, Counters{}, faultCharge{}, err
	}

	var counters Counters
	var fault faultCharge
	for i := range mapCounters {
		counters.Add(mapCounters[i])
		fault.add(mapFaults[i])
	}

	if rc.mapOnly {
		total := 0
		for i := range mapRes {
			total += len(mapRes[i].pairs)
		}
		outPairs := make([]Pair, 0, total)
		for i := range mapRes {
			outPairs = append(outPairs, mapRes[i].pairs...)
		}
		counters.OutputRecords = int64(len(outPairs))
		return outPairs, counters, fault, nil
	}

	// --- Shuffle: assemble each partition's segment list -----------------
	// Committed map attempts left sorted runs on disk; the "shuffle" here
	// is pure bookkeeping — ordering each partition's segments by (map
	// task, spill pass), which is the order that makes the reduce-side
	// merge reproduce the in-process value order.
	var shufSpan obs.SpanID
	var shufStart time.Time
	if tr != nil {
		shufSpan = obs.NewSpanID()
		tr.Begin(obs.Start{ID: shufSpan, Parent: rc.jobSpan, Kind: obs.KindTask,
			Name: job.Name, Task: -1, Phase: "shuffle"})
		shufStart = obs.Now()
	}
	partSegs := make([][]segmentRef, rc.numReducers)
	partRecs := make([]int64, rc.numReducers)
	for i := range mapRes {
		if len(mapRes[i].segs) > 0 {
			p.stats.SpillFiles++
		}
		p.stats.MidTaskSpills += mapRes[i].midSpills
		for _, s := range mapRes[i].segs {
			p.stats.Segments++
			p.stats.SpilledBytes += s.Length
			partSegs[s.Part] = append(partSegs[s.Part], s)
			partRecs[s.Part] += s.Records
		}
	}
	if tr != nil {
		tr.End(obs.End{ID: shufSpan, Kind: obs.KindTask, Name: job.Name,
			Task: -1, Phase: "shuffle", Outcome: obs.OutcomeOK,
			RealSeconds: obs.Since(shufStart).Seconds(),
			Counters:    Counters{ShuffledBytes: counters.ShuffledBytes}})
	}

	// --- Reduce phase ----------------------------------------------------
	redOuts := make([][]Pair, rc.numReducers)
	redCounters := make([]Counters, rc.numReducers)
	redFaults := make([]faultCharge, rc.numReducers)
	var rwg sync.WaitGroup
redLaunch:
	for r := 0; r < rc.numReducers; r++ {
		if partRecs[r] == 0 {
			continue
		}
		p.stats.MergedSegments += len(partSegs[r])
		select {
		case <-rc.cancelCh:
			break redLaunch
		case e.sem <- struct{}{}:
		}
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			defer func() { <-e.sem }()
			pout, c, fc, err := p.runReduceTask(r, partSegs[r], partRecs[r], rc.jobSpan, rc.cancelCh)
			redFaults[r] = fc
			if err != nil {
				if !errors.Is(err, errTaskCancelled) {
					rc.setErr(fmt.Errorf("mr: job %q reduce task %d: %w", job.Name, r, err))
				}
				return
			}
			redOuts[r] = pout
			redCounters[r] = c
		}(r)
	}
	rwg.Wait()
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
