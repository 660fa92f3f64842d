package mr

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
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
// The workers are the engine's fleet (see fleet): they outlive the Run,
// keep the splits shipped to them, and exit at Engine.Close.
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

// ProcStats summarizes the worker-process side of a multiprocess engine.
// The worker fields count the engine's fleet over its life so far (every
// Run on the engine shares one fleet, see fleet); the spill fields and
// TelemetryEvents count its most recent Run.
type ProcStats struct {
	// WorkersSpawned / WorkersKilled count worker processes started and
	// reaped dead (injected or real crashes, mid-task or while idle).
	// WorkerPIDs lists every spawned worker's OS pid in spawn order.
	WorkersSpawned int
	WorkersKilled  int
	WorkerPIDs     []int
	// SplitShipments counts the map task frames that carried a split's
	// rows to a worker: at most one per split and worker until a worker
	// drops the split or dies.
	SplitShipments int
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

// LastProcStats returns the engine's ProcStats: the fleet's worker counts
// now, with the spill counts of its most recent multiprocess Run, and
// whether such a Run has completed. It stays valid after Close.
func (e *Engine) LastProcStats() (ProcStats, bool) {
	e.mu.Lock()
	last, f := e.lastProc, e.fleet
	e.mu.Unlock()
	if last == nil {
		return ProcStats{}, false
	}
	s := *last
	f.mu.Lock()
	s.WorkersSpawned, s.WorkersKilled = f.stats.WorkersSpawned, f.stats.WorkersKilled
	s.WorkerPIDs = append([]int(nil), f.stats.WorkerPIDs...)
	s.SplitShipments = f.stats.SplitShipments
	f.mu.Unlock()
	return s, true
}

// workerProc is one live worker process and its two protocol pipes. A
// worker is owned by at most one task goroutine at a time (acquire /
// release), so its streams and its residency record need no locking.
type workerProc struct {
	cmd  *exec.Cmd
	pid  int
	name string
	in   *os.File // control pipe, driver write end
	res  *os.File // result pipe, driver read end
	bw   *bufio.Writer
	br   *bufio.Reader
	// run is the Run whose job frame this worker received last (0: none);
	// a task of another Run sends its job frame first.
	run uint64
	// tasks counts the task frames flushed to this worker: 0 until one has
	// reached its control pipe.
	tasks int
	// held is the driver's record of the splits resident on the worker,
	// by Split key: it gains a key when a task frame ships the rows and
	// loses the keys a job frame's Resident list leaves out, exactly as
	// the worker does, which checks it with every map done frame.
	held     map[uint64]bool
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

// fleet is an engine's worker processes. It is shared by every
// multiprocess Run on the engine, from the first Run until Engine.Close,
// so a worker keeps what earlier jobs left on it: the splits shipped to it
// (resident, with their Memo) and nothing else. Workers spawn on demand;
// a worker is idle or owned by one task attempt, and the engine semaphore
// caps attempts, so the fleet never outgrows Config.Parallelism.
type fleet struct {
	exe string
	// tel enables worker telemetry (the engine has a Tracer); telSample
	// is the sampler cadence shipped to workers via telemetryEnv.
	tel       bool
	telSample time.Duration

	mu     sync.Mutex
	idle   []*workerProc
	closed bool
	// runs numbers the Runs that began on the fleet.
	runs uint64
	// stats holds the fleet's worker fields of ProcStats.
	stats ProcStats
}

// procFleet returns the engine's fleet, creating it on the first
// multiprocess Run.
func (e *Engine) procFleet() (*fleet, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fleet != nil {
		return e.fleet, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("mr: multiprocess backend: resolve executable: %w", err)
	}
	telSample := e.cfg.TelemetrySample
	if telSample <= 0 {
		telSample = 250 * time.Millisecond
	}
	e.fleet = &fleet{exe: exe, tel: e.cfg.Tracer != nil, telSample: telSample}
	return e.fleet, nil
}

// spawn starts one worker process, wiring the control pipe to its fd 3 and
// the result pipe to its fd 4, and waits for its hello frame. It refuses a
// worker whose wire schema is not the driver's.
func (f *fleet) spawn() (*workerProc, error) {
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
	cmd := exec.Command(f.exe)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	if f.tel {
		cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d", telemetryEnv, f.telSample.Milliseconds()))
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
		bw:   bufio.NewWriterSize(ctlW, 256<<10),
		br:   bufio.NewReaderSize(resR, 256<<10),
		held: make(map[uint64]bool),
	}
	typ, data, err := readFrame(w.br)
	if err == nil && typ != fHello {
		err = fmt.Errorf("first frame 0x%02x, want hello", typ)
	}
	var hello helloFrame
	if err == nil {
		err = decodeFrame(data, &hello)
	}
	if err != nil {
		err = fmt.Errorf("%w (is MaybeWorkerProcess called first thing in main?)", err)
	} else if hello.Wire != wireSchema {
		err = fmt.Errorf("worker pid %d has wire schema %q, the driver has %q (binary replaced under a running driver?)",
			hello.PID, hello.Wire, wireSchema)
	} else if f.tel {
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
		return nil, fmt.Errorf("mr: worker handshake: %w", err)
	}
	w.pid = hello.PID
	w.name = fmt.Sprintf("w%d", hello.PID)
	f.mu.Lock()
	f.stats.WorkersSpawned++
	f.stats.WorkerPIDs = append(f.stats.WorkerPIDs, w.pid)
	f.mu.Unlock()
	return w, nil
}

// acquire hands out an idle worker, preferring one that holds the split
// with key (0: none to prefer). It never waits for that worker: when none
// is idle, the rows go to another idle worker, and when no worker is idle
// it spawns one.
func (f *fleet) acquire(key uint64) (*workerProc, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, errEngineClosed
	}
	if n := len(f.idle); n > 0 {
		i := n - 1
		for j := i; key != 0 && j >= 0; j-- {
			if f.idle[j].held[key] {
				i = j
				break
			}
		}
		w := f.idle[i]
		f.idle = append(f.idle[:i], f.idle[i+1:]...)
		f.mu.Unlock()
		return w, nil
	}
	f.mu.Unlock()
	return f.spawn()
}

// free returns w to the idle pool, or shuts it down if the engine closed
// while w ran a task.
func (f *fleet) free(w *workerProc) {
	f.mu.Lock()
	if !f.closed {
		f.idle = append(f.idle, w)
		w = nil
	}
	f.mu.Unlock()
	if w != nil {
		shutdown([]*workerProc{w})
	}
}

// reap collects a dead worker (injected self-kill, a real crash, or a
// death while idle): closes its pipes and waits on the corpse so nothing
// is orphaned; its resident splits go with it. A worker given up on while
// still alive (a corrupt result stream) is killed first: a closed control
// pipe would tell it the driver is gone, and it would sweep the spill
// directory the Run still reads.
func (f *fleet) reap(w *workerProc) {
	w.held = nil
	w.cmd.Process.Kill()
	w.in.Close()
	w.res.Close()
	w.wait()
	f.mu.Lock()
	f.stats.WorkersKilled++
	f.mu.Unlock()
}

// close shuts every idle worker down and makes the fleet refuse further
// tasks; a worker still running a task is shut down when it is freed.
func (f *fleet) close() error {
	f.mu.Lock()
	idle := f.idle
	f.idle, f.closed = nil, true
	f.mu.Unlock()
	return shutdown(idle)
}

// shutdown closes each worker's control pipe — the worker's clean-exit
// signal — and waits for all of them, killing any still running after a
// 2 s grace. It returns the first abnormal exit.
func shutdown(workers []*workerProc) error {
	for _, w := range workers {
		w.bw.Flush()
		w.in.Close()
	}
	grace := time.After(2 * time.Second)
	var first error
	for _, w := range workers {
		done := make(chan struct{})
		go func(w *workerProc) {
			w.wait()
			close(done)
		}(w)
		select {
		case <-done:
		case <-grace:
			w.cmd.Process.Kill()
			<-done
		}
		w.res.Close()
		if err := w.wait(); err != nil && first == nil {
			first = fmt.Errorf("mr: worker %s: %w", w.name, err)
		}
	}
	return first
}

// mapResult is a committed map attempt's driver-side output: either spill
// segments (shuffling jobs) or streamed pairs (map-only jobs).
type mapResult struct {
	pairs     []Pair
	segs      []segmentRef
	midSpills int
}

// procRun is the per-Run state of the multiprocess backend: the engine's
// fleet, the Run's spill directory and pre-encoded job frame, and the
// committed map results and partition segment lists the driver's phases
// hand on.
type procRun struct {
	rc  *runContext
	e   *Engine
	f   *fleet
	job *boundJob
	dir string
	jf  jobFrame
	// run is this Run's number on the fleet; keys[i] is split i's key, 0
	// for a split without rows (never shipped or held).
	run  uint64
	keys []uint64

	// mapRes[i] is map task i's committed result; partSegs/partRecs are
	// each partition's segments (in merge order) and record count.
	mapRes   []mapResult
	partSegs [][]segmentRef
	partRecs []int64

	mu    sync.Mutex
	stats ProcStats
}

// begin creates the Run's spill directory and pre-encodes the job frame,
// which lists the keys of the job's row-bearing splits: a worker that
// receives it keeps those of its resident splits and drops the rest.
func (multiprocBackend) begin(rc *runContext) (runState, error) {
	e, job := rc.e, rc.job
	f, err := e.procFleet()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.cfg.SpillDir, "p3cmr-spill-*")
	if err != nil {
		return nil, fmt.Errorf("mr: multiprocess backend: spill dir: %w", err)
	}
	keys := make([]uint64, len(job.Splits))
	var resident []uint64
	for i, s := range job.Splits {
		if len(s.Rows) > 0 {
			keys[i] = s.shipKey()
			resident = append(resident, keys[i])
		}
	}
	f.mu.Lock()
	f.runs++
	run := f.runs
	f.mu.Unlock()
	p := &procRun{
		rc: rc, e: e, f: f, job: job, dir: dir,
		run: run, keys: keys,
		mapRes: make([]mapResult, len(job.Splits)),
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
			Resident:    resident,
		},
	}
	return p, nil
}

// release sweeps the Run's spill directory and publishes its ProcStats;
// the workers stay with the engine's fleet.
func (p *procRun) release() {
	os.RemoveAll(p.dir)
	p.mu.Lock()
	stats := p.stats
	p.mu.Unlock()
	e := p.e
	e.mu.Lock()
	e.lastProc = &stats
	e.mu.Unlock()
}

// sendTask ships the job frame (when w's last job was another Run's) and
// one task frame.
func (p *procRun) sendTask(w *workerProc, typ byte, frame any) error {
	if w.run != p.run {
		if err := writeFrame(w.bw, fJob, p.jf); err != nil {
			return err
		}
		w.run = p.run
		if resident := p.jf.Resident; len(resident) > 0 {
			for key := range w.held {
				if !slices.Contains(resident, key) {
					delete(w.held, key)
				}
			}
		}
	}
	if err := writeFrame(w.bw, typ, frame); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	w.tasks++
	return nil
}

func (p *procRun) mapTask(i int) (Counters, faultCharge, error) {
	split, key := p.rc.job.Splits[i], p.keys[i]
	res := &p.mapRes[i]
	pairs, c, fc, err := p.runTask(PhaseMap, split.ID, split.NumRows(), key,
		func(w *workerProc, attempt, killAt int) (byte, any) {
			f := mapTaskFrame{
				Task: split.ID, Attempt: attempt,
				Offset: split.Offset, Dim: split.Dim,
				KillAt: killAt, SplitKey: key,
			}
			if key != 0 && !w.held[key] {
				f.RowBytes = encodeRows(split.Rows)
				w.held[key] = true
				p.f.mu.Lock()
				p.f.stats.SplitShipments++
				p.f.mu.Unlock()
			}
			return fMapTask, f
		},
		fMapDone, func(w *workerProc, data []byte) (Counters, error) {
			var df mapDoneFrame
			if err := decodeFrame(data, &df); err != nil {
				return Counters{}, err
			}
			if err := checkResident(w, df.Resident); err != nil {
				return Counters{}, err
			}
			res.segs, res.midSpills = df.Segments, df.MidSpills
			return df.Counters, nil
		})
	res.pairs = pairs
	return c, fc, err
}

// checkResident compares the worker's report of its resident split keys
// with the driver's record of them.
func checkResident(w *workerProc, resident []uint64) error {
	ok := len(resident) == len(w.held)
	for _, key := range resident {
		ok = ok && w.held[key]
	}
	if !ok {
		return fmt.Errorf("worker holds splits %v, driver record has %d", resident, len(w.held))
	}
	return nil
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
	return p.runTask(PhaseReduce, r, int(records), 0,
		func(_ *workerProc, attempt, killAt int) (byte, any) {
			return fReduceTask, reduceTaskFrame{
				Task: r, Attempt: attempt, KillAt: killAt,
				Segments: segs,
			}
		},
		fReduceDone, func(_ *workerProc, data []byte) (Counters, error) {
			var df doneFrame
			err := decodeFrame(data, &df)
			return df.Counters, err
		})
}

// runTask runs one task's attempt loop (runTaskAttempts) with each attempt
// bound to a worker process, preferring one that holds the split with key.
// The fault decision is made here, in the driver, over the task's n input
// units, and ships to the worker as an exact kill index inside the task
// frame built by frame for that worker — so a multiprocess run consumes
// the FaultPlan identically to an in-process one. done decodes the
// phase's done frame into the attempt's counters.
//
// A worker that served an earlier task and fails the send of this one
// died while idle: the attempt has not started, so it moves to another
// worker and is no retry. A fresh worker that fails the send fails the
// attempt, so a binary that cannot run workers stops at MaxAttempts.
func (p *procRun) runTask(phase TaskPhase, task, n int, key uint64, frame func(w *workerProc, attempt, killAt int) (byte, any),
	doneType byte, done func(*workerProc, []byte) (Counters, error)) ([]Pair, Counters, faultCharge, error) {
	e := p.e
	var cur string
	return runTaskAttempts(e, p.job, phase, task, p.rc.jobSpan, p.rc.cancelCh,
		func() string { return cur },
		func(attempt int, span obs.SpanID) ([]Pair, Counters, float64, error) {
			w, err := p.f.acquire(key)
			if err != nil {
				return nil, Counters{}, 0, err
			}
			cur = w.name
			straggler, killAt := e.decideFault(p.job.Name, phase, task, attempt, n, span, w.name)
			for {
				typ, f := frame(w, attempt, killAt)
				if err := p.sendTask(w, typ, f); err == nil {
					break
				}
				p.f.reap(w)
				if w.tasks == 0 {
					return nil, Counters{}, straggler, errInjectedFailure
				}
				if w, err = p.f.acquire(key); err != nil {
					return nil, Counters{}, straggler, err
				}
				cur = w.name
			}
			pairs, c, err := p.attempt(w, phase, task, attempt, span, doneType, done)
			return pairs, c, straggler, err
		})
}

// attempt reads the result stream of the task attempt just sent to w —
// pairs frames accumulate, telemetry folds into the attempt span — until
// the attempt's boundary frame. A done frame of doneType commits the
// attempt (decoded by done) and returns w to the idle pool; fTaskErr is a
// real task error (the worker lives on); fDying is an injected failure
// charged with the worker's partial counters. A worker that vanishes
// without a dying frame is a real crash: it is reaped and the attempt
// retried, its counters unknown, so the charge is the retry itself, not
// wasted counters.
func (p *procRun) attempt(w *workerProc, phase TaskPhase, task, attempt int, span obs.SpanID,
	doneType byte, done func(*workerProc, []byte) (Counters, error)) ([]Pair, Counters, error) {
	broken := func(err error) ([]Pair, Counters, error) {
		p.f.reap(w)
		return nil, Counters{}, fmt.Errorf("mr: worker %s: %w", w.name, err)
	}
	var pairs []Pair
	for {
		typ, data, err := readFrame(w.br)
		if err != nil {
			p.f.reap(w)
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
			c, err := done(w, data)
			if err != nil {
				return broken(err)
			}
			p.f.free(w)
			return pairs, c, nil
		case fDying:
			var df dyingFrame
			if err := decodeFrame(data, &df); err != nil {
				p.f.reap(w)
				return nil, Counters{}, errInjectedFailure
			}
			if p.e.cfg.Tracer != nil {
				p.e.point(span, obs.PointFault, p.job.Name, task, attempt, phase, 0, w.name)
			}
			p.f.reap(w)
			return nil, df.Counters, errInjectedFailure
		case fTaskErr:
			var ef errFrame
			if err := decodeFrame(data, &ef); err != nil {
				return broken(err)
			}
			p.f.free(w)
			return nil, Counters{}, errors.New(ef.Msg)
		default:
			return broken(fmt.Errorf("unexpected frame 0x%02x", typ))
		}
	}
}
