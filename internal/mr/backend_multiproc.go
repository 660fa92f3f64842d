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
// Scheduling stays in the driver: the engine's one job driver launches the
// tasks, each runs through the same runTaskAttempts retry loop as
// in-process, and each attempt's fate comes from the same decideFault
// site, shipped to the worker as an exact kill index. An injected failure
// therefore kills a *real* process (the worker SIGKILLs itself
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
// fleet, the spill directory, the pre-encoded job frame, and the committed
// map results and partition segment lists the driver's phases hand on.
type procRun struct {
	rc  *runContext
	e   *Engine
	job *boundJob
	dir string
	exe string
	jf  jobFrame
	// tel enables worker telemetry (driver has a Tracer); telSample is the
	// sampler cadence shipped to workers via telemetryEnv.
	tel       bool
	telSample time.Duration

	// mapRes[i] is map task i's committed result; partSegs/partRecs are
	// each partition's segments (in merge order) and record count.
	mapRes   []mapResult
	partSegs [][]segmentRef
	partRecs []int64

	mu    sync.Mutex
	idle  []*workerProc
	all   []*workerProc
	stats ProcStats
}

// begin creates the Run's spill directory and pre-encodes the job frame;
// workers spawn on demand.
func (multiprocBackend) begin(rc *runContext) (runState, error) {
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
		rc: rc, e: e, job: job, dir: dir, exe: exe,
		mapRes: make([]mapResult, len(job.Splits)),
		tel:    e.cfg.Tracer != nil, telSample: telSample,
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

// free returns w to the idle pool.
func (p *procRun) free(w *workerProc) {
	p.mu.Lock()
	p.idle = append(p.idle, w)
	p.mu.Unlock()
}

// reap collects a worker that died mid-task (injected self-kill or a real
// crash): closes its pipes and waits on the corpse so nothing is orphaned.
// A worker given up on while still alive (a corrupt result stream) is
// killed first: a closed control pipe would tell it the driver is gone,
// and it would sweep the spill directory the Run still reads.
func (p *procRun) reap(w *workerProc) {
	w.dead = true
	w.cmd.Process.Kill()
	w.in.Close()
	w.res.Close()
	w.wait()
	p.mu.Lock()
	p.stats.WorkersKilled++
	p.mu.Unlock()
}

// release shuts the fleet down — closing each live worker's control pipe
// (the worker's clean-exit signal) with a bounded grace before a hard kill
// — then sweeps the spill directory and publishes ProcStats.
func (p *procRun) release() {
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

func (p *procRun) mapTask(i int) (Counters, faultCharge, error) {
	split := p.rc.job.Splits[i]
	res := &p.mapRes[i]
	pairs, c, fc, err := p.runTask(PhaseMap, split.ID, split.NumRows(),
		func(attempt, killAt int) (byte, any) {
			return fMapTask, mapTaskFrame{
				Task: split.ID, Attempt: attempt,
				Offset: split.Offset, Dim: split.Dim, Rows: split.Rows,
				KillAt: killAt,
			}
		},
		fMapDone, func(data []byte) (Counters, error) {
			var df mapDoneFrame
			err := decodeFrame(data, &df)
			res.segs, res.midSpills = df.Segments, df.MidSpills
			return df.Counters, err
		})
	res.pairs = pairs
	return c, fc, err
}

// mapOnlyPairs concatenates the pairs map-only workers streamed back, in
// split order.
func (p *procRun) mapOnlyPairs() []Pair {
	total := 0
	for i := range p.mapRes {
		total += len(p.mapRes[i].pairs)
	}
	outPairs := make([]Pair, 0, total)
	for i := range p.mapRes {
		outPairs = append(outPairs, p.mapRes[i].pairs...)
	}
	return outPairs
}

// shuffle assembles each partition's segment list. Committed map attempts
// left sorted runs on disk; the shuffle here is pure bookkeeping — ordering
// each partition's segments by (map task, spill pass), which is the order
// that makes the reduce-side merge reproduce the in-process value order.
func (p *procRun) shuffle() {
	p.partSegs = make([][]segmentRef, p.rc.numReducers)
	p.partRecs = make([]int64, p.rc.numReducers)
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.mapRes {
		if len(p.mapRes[i].segs) > 0 {
			p.stats.SpillFiles++
		}
		p.stats.MidTaskSpills += p.mapRes[i].midSpills
		for _, s := range p.mapRes[i].segs {
			p.stats.Segments++
			p.stats.SpilledBytes += s.Length
			p.partSegs[s.Part] = append(p.partSegs[s.Part], s)
			p.partRecs[s.Part] += s.Records
		}
	}
}

func (p *procRun) emptyPartition(r int) bool { return p.partRecs[r] == 0 }

func (p *procRun) reduceTask(r int) ([]Pair, Counters, faultCharge, error) {
	segs, records := p.partSegs[r], p.partRecs[r]
	p.mu.Lock()
	p.stats.MergedSegments += len(segs)
	p.mu.Unlock()
	return p.runTask(PhaseReduce, r, int(records),
		func(attempt, killAt int) (byte, any) {
			return fReduceTask, reduceTaskFrame{
				Task: r, Attempt: attempt, KillAt: killAt,
				Segments: segs, TotalRecords: records,
			}
		},
		fReduceDone, func(data []byte) (Counters, error) {
			var df doneFrame
			err := decodeFrame(data, &df)
			return df.Counters, err
		})
}

// runTask runs one task's attempt loop (runTaskAttempts) with each attempt
// bound to a worker process. The fault decision is made here, in the
// driver, over the task's n input units, and ships to the worker as an
// exact kill index inside the task frame built by frame — so a
// multiprocess run consumes the FaultPlan identically to an in-process
// one. done decodes the phase's done frame into the attempt's counters.
func (p *procRun) runTask(phase TaskPhase, task, n int, frame func(attempt, killAt int) (byte, any),
	doneType byte, done func([]byte) (Counters, error)) ([]Pair, Counters, faultCharge, error) {
	e := p.e
	var cur string
	return runTaskAttempts(e, p.job, phase, task, p.rc.jobSpan, p.rc.cancelCh,
		func() string { return cur },
		func(attempt int, span obs.SpanID) ([]Pair, Counters, float64, error) {
			w, err := p.acquire()
			if err != nil {
				return nil, Counters{}, 0, err
			}
			cur = w.name
			straggler, killAt := e.decideFault(p.job.Name, phase, task, attempt, n, span, w.name)
			typ, f := frame(attempt, killAt)
			pairs, c, err := p.attempt(w, phase, task, attempt, span, typ, f, doneType, done)
			return pairs, c, straggler, err
		})
}

// attempt runs one task attempt on w: it sends the task frame, then reads
// the result stream — pairs frames accumulate, telemetry folds into the
// attempt span — until the attempt's boundary frame. A done frame of
// doneType commits the attempt (decoded by done) and returns w to the idle
// pool; fTaskErr is a real task error (the worker lives on); fDying is an
// injected failure charged with the worker's partial counters. A worker
// that vanishes without a dying frame is a real crash: it is reaped and
// the attempt retried, its counters unknown, so the charge is the retry
// itself, not wasted counters.
func (p *procRun) attempt(w *workerProc, phase TaskPhase, task, attempt int, span obs.SpanID,
	typ byte, frame any, doneType byte, done func([]byte) (Counters, error)) ([]Pair, Counters, error) {
	if err := p.sendTask(w, typ, frame); err != nil {
		p.reap(w)
		return nil, Counters{}, errInjectedFailure
	}
	broken := func(err error) ([]Pair, Counters, error) {
		p.reap(w)
		return nil, Counters{}, fmt.Errorf("mr: worker %s: %w", w.name, err)
	}
	var pairs []Pair
	for {
		typ, data, err := readFrame(w.br)
		if err != nil {
			p.reap(w)
			return nil, Counters{}, errInjectedFailure
		}
		switch typ {
		case fPairs:
			var pf pairsFrame
			if err := decodeFrame(data, &pf); err != nil {
				return broken(err)
			}
			if pairs, err = decodePairs(pairs, pf.Data); err != nil {
				return broken(err)
			}
		case fTelemetry:
			if err := p.emitTelemetry(w, span, task, attempt, data); err != nil {
				return broken(err)
			}
		case doneType:
			c, err := done(data)
			if err != nil {
				return broken(err)
			}
			p.free(w)
			return pairs, c, nil
		case fDying:
			var df dyingFrame
			if err := decodeFrame(data, &df); err != nil {
				p.reap(w)
				return nil, Counters{}, errInjectedFailure
			}
			if p.e.cfg.Tracer != nil {
				p.e.point(span, obs.PointFault, p.job.Name, task, attempt, phase, 0, w.name)
			}
			p.reap(w)
			return nil, df.Counters, errInjectedFailure
		case fTaskErr:
			var ef errFrame
			if err := decodeFrame(data, &ef); err != nil {
				return broken(err)
			}
			p.free(w)
			return nil, Counters{}, errors.New(ef.Msg)
		default:
			return broken(fmt.Errorf("unexpected frame 0x%02x", typ))
		}
	}
}
