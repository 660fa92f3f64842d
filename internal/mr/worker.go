package mr

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"p3cmr/internal/obs"
)

// This file is the worker side of the multiprocess backend: a re-exec'd
// copy of the current binary (os.Executable) that speaks the wire.go frame
// protocol over two inherited pipes — fd 3 is the driver→worker control
// stream, fd 4 the worker→driver result stream. Stdout/stderr stay free, so
// stray prints from job code cannot corrupt the protocol.
//
// The worker is deliberately thin: every scheduling decision — retries,
// fault decisions, straggler charges, spans — stays in the driver. A worker
// receives fully-resolved task frames (including the exact record index at
// which to kill itself) and executes the same record loops as the
// in-process backend, emitting into the same record plane. Injected faults
// become real process deaths: the worker flushes a dying frame carrying the
// attempt's partial counters, then SIGKILLs itself, giving the driver the
// exact Wasted accounting of an in-process injected failure plus a genuine
// process corpse for the chaos harness to audit.

// workerEnv marks a process as an mr worker. MaybeWorkerProcess checks it;
// the driver sets it on spawned children.
const workerEnv = "P3CMR_MR_WORKER"

// telemetryEnv enables worker telemetry; its value is the resource-sampler
// cadence in milliseconds. The driver sets it only when it has a Tracer, so
// a telemetry-off run never sees the variable, never constructs a tracer,
// and never writes an fTelemetry frame — the wire stream stays bit-identical
// to the pre-telemetry protocol.
const telemetryEnv = "P3CMR_MR_TELEMETRY"

// MaybeWorkerProcess turns the current process into a multiprocess-backend
// worker if it was spawned as one (workerEnv set), never returning in that
// case. Binaries that might act as multiprocess drivers — cmd/p3crun, test
// binaries via TestMain — must call it first thing in main, before flag
// parsing or any other side effects.
func MaybeWorkerProcess() {
	if os.Getenv(workerEnv) == "" {
		return
	}
	ctl := os.NewFile(3, "mr-worker-ctl")
	res := os.NewFile(4, "mr-worker-res")
	if ctl == nil || res == nil {
		fmt.Fprintln(os.Stderr, "mr worker: control fds 3/4 not inherited")
		os.Exit(2)
	}
	if err := runWorker(ctl, res); err != nil {
		fmt.Fprintf(os.Stderr, "mr worker: %v\n", err)
		os.Exit(2)
	}
	os.Exit(0)
}

// workerState is one worker process's protocol loop state.
type workerState struct {
	br *bufio.Reader
	bw *bufio.Writer
	// job is the materialized current job (registry funcs + decoded cache);
	// jobErr defers an impl-resolution failure to the first task frame, so
	// it surfaces as a task error instead of a dead worker.
	job    *boundJob
	jobErr error
	nb     int
	// mapOnly jobs return their output over the wire; every other job
	// spills its buckets whenever they pass spillLimit, and at commit.
	mapOnly    bool
	spillDir   string
	spillLimit int64
	// pools recycles map states across tasks, mirroring the engine pools —
	// including poison-on-return when the driver forwards DebugPoisonPools.
	pools *enginePools
	// batch is the reduce merge's reused per-key buffer.
	batch []rec
	// tel is the in-worker tracer (nil when the driver did not enable
	// telemetry — every use is nil-safe); telSample is the sampler cadence.
	tel       *obs.WorkerTelemetry
	telSample time.Duration
	// queued mirrors bw.Buffered() after each frame write: the pipe
	// backpressure proxy the sampler goroutine reads. Only the protocol
	// goroutine touches bw itself.
	queued atomic.Int64
}

// runWorker drives the frame loop until shutdown (or driver EOF).
func runWorker(ctl io.Reader, res io.Writer) error {
	w := &workerState{
		br: bufio.NewReaderSize(ctl, 256<<10),
		bw: bufio.NewWriterSize(res, 256<<10),
	}
	if v := os.Getenv(telemetryEnv); v != "" {
		w.tel = obs.NewWorkerTelemetry()
		w.telSample = 250 * time.Millisecond
		if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
			w.telSample = time.Duration(ms) * time.Millisecond
		}
		defer w.tel.StopSampler()
	}
	if err := w.send(fHello, helloFrame{PID: os.Getpid()}); err != nil {
		return err
	}
	if w.tel != nil {
		// The clock frame right after hello gives the driver one
		// (worker-seconds, driver-time) pair to align every later timestamp.
		if err := w.send(fTelemetry, telemetryFrame{Events: []obs.TelemetryEvent{w.tel.Clock()}}); err != nil {
			return err
		}
	}
	for {
		typ, data, err := readFrame(w.br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				// Driver closed the control pipe: clean teardown.
				return nil
			}
			return fmt.Errorf("read control frame: %w", err)
		}
		switch typ {
		case fJob:
			err = w.setJob(data)
		case fMapTask:
			err = w.runMap(data)
		case fReduceTask:
			err = w.runReduce(data)
		case fShutdown:
			return nil
		default:
			err = fmt.Errorf("unexpected control frame 0x%02x", typ)
		}
		if err != nil {
			return err
		}
	}
}

// send writes and flushes one result frame. Errors here are protocol
// errors (driver gone): the worker exits.
func (w *workerState) send(typ byte, payload any) error {
	if err := writeFrame(w.bw, typ, payload); err != nil {
		return err
	}
	if w.tel != nil {
		w.queued.Store(int64(w.bw.Buffered()))
	}
	return w.bw.Flush()
}

// flushTelemetry writes the drained trace buffer as one fTelemetry frame,
// without flushing the pipe — callers follow up with the attempt's boundary
// frame, whose send flushes both. Flushing only at task boundaries keeps
// the frame discipline simple (the sampler never touches the pipe) and
// guarantees the driver only ever sees complete begin/end sets: a hard
// crash loses the whole unflushed buffer, never half a span.
func (w *workerState) flushTelemetry() {
	if w.tel == nil {
		return
	}
	evs := w.tel.Drain()
	if len(evs) == 0 {
		return
	}
	_ = writeFrame(w.bw, fTelemetry, telemetryFrame{Events: evs})
}

// sendTaskErr reports a real (non-retryable) task error; the worker stays
// alive for a potential next job.
func (w *workerState) sendTaskErr(err error) error {
	w.tel.AbortOpen(obs.OutcomeError, err.Error())
	w.flushTelemetry()
	return w.send(fTaskErr, errFrame{Msg: err.Error()})
}

// die flushes the attempt's partial counters and SIGKILLs this process —
// the multiprocess realization of an injected task failure. Never returns.
func (w *workerState) die(c Counters) {
	w.tel.AbortOpen(obs.OutcomeFault, "injected failure")
	w.flushTelemetry()
	_ = writeFrame(w.bw, fDying, dyingFrame{Counters: c})
	_ = w.bw.Flush()
	selfKill()
}

// selfKill delivers SIGKILL to the current process: un-trappable, no
// deferred functions, no pool returns — a genuine worker death. The spin
// loop is unreachable in practice (the kill lands inside the syscall) but
// guarantees no code past the kill point ever runs.
func selfKill() {
	if p, err := os.FindProcess(os.Getpid()); err == nil {
		_ = p.Kill()
	}
	for {
		runtime.Gosched()
	}
}

// setJob materializes a job frame: registry funcs, decoded cache, pools.
func (w *workerState) setJob(data []byte) error {
	var jf jobFrame
	if err := decodeFrame(data, &jf); err != nil {
		return fmt.Errorf("decode job frame: %w", err)
	}
	w.job, w.jobErr = nil, nil
	funcs, err := buildImpl(jf.Impl, jf.Spec)
	if err != nil {
		w.jobErr = err
		return nil
	}
	var cache map[string]any
	if len(jf.CacheKeys) > 0 {
		cache = make(map[string]any, len(jf.CacheKeys))
		for i, k := range jf.CacheKeys {
			v, err := readValue(bytes.NewReader(jf.CacheVals[i]))
			if err != nil {
				w.jobErr = fmt.Errorf("decode cache entry %q: %w", k, err)
				return nil
			}
			cache[k] = v
		}
	}
	w.job = &boundJob{
		Job:      &Job{Name: jf.Name, NumReducers: jf.NumReducers, Cache: cache},
		JobFuncs: funcs,
	}
	w.nb = jf.NB
	w.mapOnly = jf.MapOnly
	w.spillDir = jf.SpillDir
	w.spillLimit = jf.SpillLimit
	w.pools = newEnginePools(jf.Poison)
	// (Re)start the resource sampler against this job's spill directory. The
	// sampler writes into the telemetry buffer only; its snapshots reach the
	// driver with the next task-boundary flush.
	w.tel.StopSampler()
	w.tel.StartSampler(w.telSample, jf.SpillDir, w.queued.Load)
	return nil
}

// runMap executes one map task attempt — the worker-side mirror of
// tryMapTask, with the same record-loop kill points (before record KillAt,
// or after the last record) and the same counter and ShuffledBytes
// accounting, plus threshold-triggered spills to disk.
func (w *workerState) runMap(data []byte) error {
	var f mapTaskFrame
	if err := decodeFrame(data, &f); err != nil {
		return fmt.Errorf("decode map task frame: %w", err)
	}
	if w.jobErr != nil {
		return w.sendTaskErr(w.jobErr)
	}
	split := &Split{ID: f.Task, Offset: f.Offset, Dim: f.Dim, Rows: f.Rows}
	st := w.pools.getMapState(w.nb)
	defer w.pools.putMapState(st)
	sw := newSpillWriter(filepath.Join(w.spillDir, fmt.Sprintf("m%d_a%d.spill", f.Task, f.Attempt)))
	fail := func(err error) error {
		sw.abort()
		return w.sendTaskErr(err)
	}

	var c Counters
	mapper := w.job.NewMapper()
	ctx := &TaskContext{
		JobName:     w.job.Name,
		TaskID:      f.Task,
		Split:       split,
		cache:       w.job.Cache,
		ms:          st,
		counters:    &c,
		numReducers: w.nb,
		trackBuf:    !w.mapOnly,
	}
	// Telemetry steps: map-exec spans Setup through Cleanup;
	// each spill pass gets its own overlapping spill-write sibling. Open
	// steps are closed by AbortOpen on the die/sendTaskErr paths.
	exec := w.tel.StartStep("map-exec", "map")
	if err := mapper.Setup(ctx); err != nil {
		return fail(err)
	}
	n := split.NumRows()
	seq := 0
	for i := 0; i < n; i++ {
		if i == f.KillAt {
			w.die(c)
		}
		c.MapInputRecords++
		if err := mapper.Map(ctx, split.Offset+i, split.Row(i)); err != nil {
			return fail(err)
		}
		if !w.mapOnly && st.bufBytes >= w.spillLimit {
			sp := w.tel.StartStep("spill-write", "map")
			if err := sw.spillAll(st, seq, true); err != nil {
				return fail(err)
			}
			sp.Done()
			seq++
		}
	}
	if n == f.KillAt {
		w.die(c)
	}
	if err := mapper.Cleanup(ctx); err != nil {
		return fail(err)
	}
	exec.Done()

	if w.mapOnly {
		// Map-only output returns over the wire in emission order (bucket 0
		// holds every record); nothing touches disk.
		fe := w.tel.StartStep("frame-encode", "map")
		if err := w.sendBucketPairs(st); err != nil {
			return err
		}
		fe.Done()
		w.flushTelemetry()
		return w.send(fMapDone, mapDoneFrame{Counters: c})
	}
	sp := w.tel.StartStep("spill-write", "map")
	if err := sw.spillAll(st, seq, false); err != nil {
		return fail(err)
	}
	segs, err := sw.finish()
	if err != nil {
		return fail(err)
	}
	sp.Done()
	w.flushTelemetry()
	return w.send(fMapDone, mapDoneFrame{Counters: c, Segments: segs, MidSpills: sw.midSpills})
}

// pairsChunk bounds one fPairs frame.
const pairsChunk = 1024

// sendBucketPairs streams a map-only task's bucket 0 as pairs frames.
func (w *workerState) sendBucketPairs(st *mapState) error {
	pairs := make([]Pair, 0, pairsChunk)
	flush := func() error {
		if len(pairs) == 0 {
			return nil
		}
		data, err := encodePairs(pairs)
		if err != nil {
			return w.sendTaskErr(err)
		}
		pairs = pairs[:0]
		return w.send(fPairs, pairsFrame{Data: data})
	}
	for _, r := range st.buckets[0] {
		pairs = append(pairs, Pair{Key: st.tab.keys[r.key], Value: r.val})
		if len(pairs) == pairsChunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// sendPairs streams a reduce task's committed output.
func (w *workerState) sendPairs(out []Pair) error {
	for len(out) > 0 {
		n := pairsChunk
		if n > len(out) {
			n = len(out)
		}
		data, err := encodePairs(out[:n])
		if err != nil {
			return w.sendTaskErr(err)
		}
		if err := w.send(fPairs, pairsFrame{Data: data}); err != nil {
			return err
		}
		out = out[n:]
	}
	return nil
}

// runReduce executes one reduce task attempt: it k-way merges the
// partition's spill segments (ordered by map task, then spill pass — the
// in-process value order) and drives the reducer with the same grouping,
// kill-threshold and counter semantics as tryReduceTask.
func (w *workerState) runReduce(data []byte) error {
	var f reduceTaskFrame
	if err := decodeFrame(data, &f); err != nil {
		return fmt.Errorf("decode reduce task frame: %w", err)
	}
	if w.jobErr != nil {
		return w.sendTaskErr(w.jobErr)
	}
	files := make(map[string]*os.File)
	defer func() {
		for _, fl := range files {
			fl.Close()
		}
	}()
	readers := make([]*segReader, 0, len(f.Segments))
	for ord, ref := range f.Segments {
		fl, ok := files[ref.Path]
		if !ok {
			var err error
			fl, err = os.Open(ref.Path)
			if err != nil {
				return w.sendTaskErr(err)
			}
			files[ref.Path] = fl
		}
		r, err := openSegment(fl, ref, ord)
		if err != nil {
			return w.sendTaskErr(err)
		}
		readers = append(readers, r)
	}

	var c Counters
	var out []Pair
	ctx := &TaskContext{
		JobName:  w.job.Name,
		TaskID:   f.Task,
		cache:    w.job.Cache,
		outPairs: &out,
	}
	consumed := 0
	merge := w.tel.StartStep("segment-merge", "reduce")
	err := mergeSegments(readers, &w.batch, func(k string, grouped []rec) error {
		if f.KillAt >= 0 && consumed >= f.KillAt {
			return errInjectedFailure
		}
		consumed += len(grouped)
		c.ReduceInputKeys++
		c.ReduceInputVals += int64(len(grouped))
		return w.job.TypedReducer.ReduceTyped(ctx, k, Values{recs: grouped})
	})
	if err != nil {
		if errors.Is(err, errInjectedFailure) {
			w.die(c)
		}
		return w.sendTaskErr(err)
	}
	merge.Done()
	if f.KillAt >= 0 && consumed >= f.KillAt {
		// KillFrac ≈ 1: die after the last key, before committing output.
		w.die(c)
	}
	fe := w.tel.StartStep("frame-encode", "reduce")
	if err := w.sendPairs(out); err != nil {
		return err
	}
	fe.Done()
	w.flushTelemetry()
	return w.send(fReduceDone, doneFrame{Counters: c})
}
