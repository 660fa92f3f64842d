package mr

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"p3cmr/internal/obs"
)

// Config tunes an Engine.
type Config struct {
	// Parallelism caps concurrently running task goroutines. Zero means
	// runtime.NumCPU().
	Parallelism int
	// NumReducers is the default reducer count for jobs that leave theirs
	// zero. The paper's cluster ran 112 reducers; locally this only affects
	// the cost model and partitioning, not correctness.
	NumReducers int
	// MaxAttempts is the per-task retry budget (Hadoop default 4), shared by
	// map and reduce tasks. Zero means 4.
	MaxAttempts int
	// Faults, when non-nil, injects deterministic failures and simulated
	// straggler delays into map and reduce attempts. Injected
	// failures are retried up to MaxAttempts; real task errors are not (a
	// deterministic bug would fail every attempt anyway, and surfacing it
	// fast keeps tests honest). Plans must be pure and concurrency-safe —
	// see FaultPlan.
	Faults FaultPlan
	// Cost configures the simulated cluster cost model. Zero value disables
	// simulation (SimulatedSeconds stays 0).
	Cost CostModel
	// Tracer, when non-nil, receives structured span events: one job span
	// per Run (parented by Job.TraceParent), one task span per map/reduce
	// attempt, a shuffle span per reduce job, and point events for injected
	// faults, retries, stragglers and cancellations. Tracing is pure
	// observation — it cannot change job output, counters or simulated
	// seconds (pinned by the chaos trace-identity tests) — and a nil Tracer
	// costs nothing on the hot path (no clock reads, no allocations; pinned
	// by bench_test.go).
	Tracer obs.Tracer
	// Metrics, when non-nil, receives engine-level aggregates per job run:
	// mr_jobs_total, mr_map_input_records_total, mr_map_output_records_total,
	// mr_output_records_total, mr_shuffled_bytes_total, mr_task_retries_total,
	// mr_wasted_records_total, the mr_simulated_seconds_total gauge and the
	// mr_job_real_seconds histogram. Handles are resolved once in NewEngine,
	// so the per-job cost is a handful of atomic adds.
	Metrics *obs.Registry
	// DebugPoisonPools overwrites the engine's pooled shuffle buffers with
	// garbage markers as they are recycled. A buffer recycled while a stale
	// reference can still observe it then yields obviously-corrupt records
	// instead of stale-but-plausible ones, which the bit-identity chaos
	// oracles detect — the canary proving the pool lifecycle barriers (see
	// enginePools). Test/debug knob; leave off otherwise. The multiprocess
	// backend forwards the flag to its workers, whose pools poison the same
	// way.
	DebugPoisonPools bool
	// Backend selects the execution backend by name: "" or "inprocess" (the
	// goroutine backend) or "multiprocess" (worker OS processes with
	// disk-spilled shuffle; see backend_multiproc.go). Both run under the
	// same job driver and produce bit-identical output, counters and
	// ShuffledBytes for the same job and fault plan (pinned by the
	// conformance suite). Parallelism 1 runs tasks one at a time. The
	// multiprocess backend's worker processes serve every Run on the
	// engine until Engine.Close.
	Backend string
	// SpillDir is where the multiprocess backend creates its per-run spill
	// directory. Empty means os.TempDir(). Each Run makes (and removes) a
	// private subdirectory, so concurrent runs never collide.
	SpillDir string
	// TelemetrySample is the multiprocess backend's worker resource-sampler
	// cadence. Zero means 250ms. Worker telemetry as a whole rides the
	// Tracer: with a nil Tracer workers build no tracer, start no sampler
	// and send no telemetry frame.
	TelemetrySample time.Duration
	// SpillThresholdBytes caps a multiprocess map worker's in-memory
	// shuffle buffer: when the buffered record bytes exceed it, every
	// bucket is spilled to disk as a sorted run and the buffers reset, so
	// map output never needs to fit in RAM. Zero means 64 MiB; 1 spills
	// after every record batch ("always spill"); math.MaxInt64 never spills
	// mid-task (final sorted runs are still written at task commit).
	// Ignored by the in-process backend, whose shuffle is in-memory by
	// design.
	SpillThresholdBytes int64
}

// engineMetrics caches the registry handles the engine updates at the end
// of every job, so Run never takes the registry mutex.
type engineMetrics struct {
	jobs, mapIn, mapOut, outRecs, shuffled, retries, wasted *obs.Counter
	simSeconds                                              *obs.Gauge
	jobReal                                                 *obs.Histogram
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	return &engineMetrics{
		jobs:       r.Counter("mr_jobs_total"),
		mapIn:      r.Counter("mr_map_input_records_total"),
		mapOut:     r.Counter("mr_map_output_records_total"),
		outRecs:    r.Counter("mr_output_records_total"),
		shuffled:   r.Counter("mr_shuffled_bytes_total"),
		retries:    r.Counter("mr_task_retries_total"),
		wasted:     r.Counter("mr_wasted_records_total"),
		simSeconds: r.Gauge("mr_simulated_seconds_total"),
		jobReal:    r.Histogram("mr_job_real_seconds", []float64{0.001, 0.01, 0.1, 1, 10, 60}),
	}
}

// Engine executes Jobs. It is safe for concurrent use by multiple
// goroutines; each Run is independent, but all Runs share one task
// semaphore, so Config.Parallelism is a true engine-wide cap on in-flight
// tasks even when several jobs execute concurrently (a Hadoop cluster's
// slot count, not a per-job budget).
type Engine struct {
	cfg Config
	// sem is the engine-wide counting semaphore: every map and reduce task
	// of every concurrent Run holds one slot while executing.
	sem chan struct{}
	// met caches metric handles when Config.Metrics is set.
	met *engineMetrics
	// pools recycles shuffle buffers across jobs and tasks.
	pools *enginePools
	// backend executes the tasks of each Run (see Backend); backendErr
	// defers an unknown-name error from NewEngine to the first Run.
	backend    Backend
	backendErr error
	// TotalSimulated accumulates simulated seconds across all jobs run on
	// this engine, so a pipeline can report an end-to-end modeled runtime.
	mu             sync.Mutex
	totalSimulated float64
	jobsRun        int
	totals         Counters
	totalsWasted   Counters
	perJob         map[string]*JobStats
	// lastProc holds the most recent multiprocess Run's spill statistics
	// (nil until a multiprocess job ran); see LastProcStats.
	lastProc *ProcStats
	// fleet is the multiprocess backend's worker processes, created by the
	// first multiprocess Run and shut down by Close.
	fleet *fleet
	// closed is set by Close; a later Run fails.
	closed atomic.Bool
}

// JobStats accumulates per-job-name statistics across an engine's lifetime
// — the observability a Hadoop job tracker would provide.
type JobStats struct {
	// Runs counts executions of jobs with this name.
	Runs int
	// Counters accumulates across the runs.
	Counters Counters
	// SimulatedSeconds accumulates modeled cost.
	SimulatedSeconds float64
}

// NewEngine returns an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.NumCPU()
	}
	if cfg.NumReducers <= 0 {
		cfg.NumReducers = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	e := &Engine{cfg: cfg, sem: make(chan struct{}, cfg.Parallelism), pools: newEnginePools(cfg.DebugPoisonPools)}
	e.backend, e.backendErr = pickBackend(cfg.Backend)
	if cfg.Metrics != nil {
		e.met = newEngineMetrics(cfg.Metrics)
	}
	return e
}

// BackendName reports which backend this engine executes jobs on.
func (e *Engine) BackendName() string {
	if e.backend == nil {
		return e.cfg.Backend
	}
	return e.backend.Name()
}

// Default returns an engine with library defaults, suitable for tests and
// examples.
func Default() *Engine { return NewEngine(Config{}) }

// Cost returns the engine's configured cost model.
func (e *Engine) Cost() CostModel { return e.cfg.Cost }

// Tracer returns the engine's configured tracer (nil when tracing is off),
// so higher layers — the pipeline's phase and run spans — emit into the
// same sink the engine does.
func (e *Engine) Tracer() obs.Tracer { return e.cfg.Tracer }

// Metrics returns the engine's metrics registry (nil when disabled).
func (e *Engine) Metrics() *obs.Registry { return e.cfg.Metrics }

// TotalSimulatedSeconds reports the accumulated modeled runtime of all jobs
// run so far.
func (e *Engine) TotalSimulatedSeconds() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.totalSimulated
}

// JobsRun reports how many jobs this engine executed.
func (e *Engine) JobsRun() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.jobsRun
}

// TotalCounters returns counters accumulated across all jobs. Only
// successful attempts contribute: failed-attempt work is tracked separately
// by TotalWasted, so these stay an exact description of the computation no
// matter how many faults were injected.
func (e *Engine) TotalCounters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.totals
}

// TotalWasted returns the counters of failed task attempts accumulated
// across all jobs — work the modeled cluster performed and threw away.
func (e *Engine) TotalWasted() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.totalsWasted
}

// ResetAccounting zeroes the accumulated simulated time, job count and
// counters.
func (e *Engine) ResetAccounting() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.totalSimulated = 0
	e.jobsRun = 0
	e.totals = Counters{}
	e.totalsWasted = Counters{}
	e.perJob = nil
}

// Close shuts down the engine's worker fleet (multiprocess backend: each
// worker exits once its control pipe closes) and makes every later Run
// fail. The in-process backend holds nothing to release. Close is
// idempotent and returns the first worker that did not exit cleanly; call
// it once the engine's Runs have returned. A driver that exits without
// Close leaks nothing: its workers see their control pipes close and
// exit, and every Run has already removed its spill directory.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.mu.Lock()
	f := e.fleet
	e.mu.Unlock()
	if f == nil {
		return nil
	}
	return f.close()
}

// errEngineClosed is the error of a Run on a closed engine.
var errEngineClosed = errors.New("mr: engine closed")

// errInjectedFailure marks fault-injection failures so the retry loop can
// distinguish them from real mapper/reducer errors (which are not retried).
var errInjectedFailure = errors.New("mr: injected task failure")

// errTaskCancelled marks a task attempt aborted because a sibling task of
// the same Run failed permanently. It never becomes the job error — the
// sibling's failure, recorded first, does.
var errTaskCancelled = errors.New("mr: task cancelled by sibling failure")

// faultCharge accumulates the modeled price of faults over one task's
// attempt loop: the counters of failed attempts (work performed and thrown
// away) and the simulated straggler delay across all attempts.
type faultCharge struct {
	Wasted    Counters
	Straggler float64
}

// add folds another task's charge into f.
func (f *faultCharge) add(o faultCharge) {
	f.Wasted.Add(o.Wasted)
	f.Straggler += o.Straggler
}

// cancelled reports (without blocking) whether the run's cancel channel is
// closed.
func cancelled(cancel <-chan struct{}) bool {
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}

// Run executes the job and collects its output.
func (e *Engine) Run(j *Job) (*Output, error) {
	if e.backendErr != nil {
		return nil, e.backendErr
	}
	if e.closed.Load() {
		return nil, errEngineClosed
	}
	job, rerr := resolveJob(j)
	if rerr != nil {
		return nil, rerr
	}
	numReducers := job.NumReducers
	if numReducers <= 0 {
		numReducers = e.cfg.NumReducers
	}
	mapOnly := job.TypedReducer == nil
	nb := numReducers
	if mapOnly {
		nb = 1
	}

	// Everything observability-related is gated on tr/e.met being non-nil:
	// an untraced engine takes no clock readings and allocates nothing here.
	tr := e.cfg.Tracer
	var jobSpan obs.SpanID
	var jobStart time.Time
	if tr != nil {
		jobSpan = obs.NewSpanID()
		tr.Begin(obs.Start{ID: jobSpan, Parent: job.TraceParent, Kind: obs.KindJob, Name: job.Name})
	}
	if tr != nil || e.met != nil {
		jobStart = obs.Now()
	}
	endJobErr := func(err error) {
		if tr != nil {
			tr.End(obs.End{ID: jobSpan, Kind: obs.KindJob, Name: job.Name,
				Outcome: obs.OutcomeError, Err: err.Error(),
				RealSeconds: obs.Since(jobStart).Seconds()})
		}
	}

	// The backend opens the Run's execution state; the phases themselves
	// run in the one job driver (runContext.drive) on every backend.
	rc := &runContext{
		e: e, job: job, mapOnly: mapOnly, nb: nb, numReducers: numReducers,
		jobSpan: jobSpan, cancelCh: make(chan struct{}),
	}
	rs, err := e.backend.begin(rc)
	if err != nil {
		endJobErr(err)
		return nil, err
	}
	outPairs, counters, fault, err := rc.drive(rs)
	if err != nil {
		endJobErr(err)
		return nil, err
	}

	out := &Output{Pairs: outPairs, Counters: counters, Wasted: fault.Wasted}
	out.SimulatedSeconds = e.cfg.Cost.jobSeconds(job.Job, counters, fault, numReducers)
	e.mu.Lock()
	e.totalSimulated += out.SimulatedSeconds
	e.jobsRun++
	e.totals.Add(counters)
	e.totalsWasted.Add(fault.Wasted)
	if e.perJob == nil {
		e.perJob = make(map[string]*JobStats)
	}
	js := e.perJob[job.Name]
	if js == nil {
		js = &JobStats{}
		e.perJob[job.Name] = js
	}
	js.Runs++
	js.Counters.Add(counters)
	js.SimulatedSeconds += out.SimulatedSeconds
	e.mu.Unlock()
	if tr != nil {
		tr.End(obs.End{ID: jobSpan, Kind: obs.KindJob, Name: job.Name,
			Outcome:          obs.OutcomeOK,
			RealSeconds:      obs.Since(jobStart).Seconds(),
			SimulatedSeconds: out.SimulatedSeconds,
			Counters:         counters, Wasted: fault.Wasted,
			Retries: counters.TaskRetries})
	}
	if m := e.met; m != nil {
		m.jobs.Inc()
		m.mapIn.Add(counters.MapInputRecords)
		m.mapOut.Add(counters.MapOutputRecords)
		m.outRecs.Add(counters.OutputRecords)
		m.shuffled.Add(counters.ShuffledBytes)
		m.retries.Add(counters.TaskRetries)
		m.wasted.Add(fault.Wasted.MapInputRecords + fault.Wasted.ReduceInputVals)
		m.simSeconds.Add(out.SimulatedSeconds)
		m.jobReal.Observe(obs.Since(jobStart).Seconds())
	}
	return out, nil
}

// JobStatsByName returns a copy of the per-job-name statistics accumulated
// so far, keyed by Job.Name.
func (e *Engine) JobStatsByName() map[string]JobStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]JobStats, len(e.perJob))
	for name, js := range e.perJob {
		out[name] = *js
	}
	return out
}

// point emits a point event into the engine's tracer, attributed to a
// worker process when worker is non-empty (multiprocess backend). Callers
// gate on e.cfg.Tracer != nil so the untraced path pays nothing (not even
// the TaskPhase→string conversion).
func (e *Engine) point(span obs.SpanID, kind obs.PointKind, name string, task, attempt int, phase TaskPhase, seconds float64, worker string) {
	//lint:allow tracenil every caller gates on e.cfg.Tracer != nil before paying for this call's arguments
	e.cfg.Tracer.Point(obs.Point{Span: span, Kind: kind, Name: name,
		Task: task, Attempt: attempt, Phase: phase.String(), Seconds: seconds, Worker: worker})
}

// decideFault is the one fault decision site of every backend: it consults
// the FaultPlan for one attempt over n input units (a map task's records, a
// reduce task's values) and returns the attempt's straggler charge and its
// injected-failure index (-1 = none), emitting the straggler point on the
// attempt span. The multiprocess backend ships the index to its worker as
// the exact kill point, so both backends consume the plan identically.
func (e *Engine) decideFault(job string, phase TaskPhase, task, attempt, n int, span obs.SpanID, worker string) (straggler float64, failAt int) {
	if e.cfg.Faults == nil {
		return 0, -1
	}
	d := e.cfg.Faults.Decide(job, phase, task, attempt)
	if d.StragglerSeconds > 0 && e.cfg.Tracer != nil {
		e.point(span, obs.PointStraggler, job, task, attempt, phase, d.StragglerSeconds, worker)
	}
	failAt = -1
	if d.Fail {
		// Fail partway through the task to exercise partial-output discard.
		failAt = failIndex(d.FailFrac, n)
	}
	return d.StragglerSeconds, failAt
}

// runTaskAttempts drives one task's attempt loop, shared by map and reduce
// tasks: injected failures are retried up to MaxAttempts with the failed
// attempt's counters diverted into the fault charge (never the job
// counters), real errors abort immediately, and the loop bails out between
// attempts when the run is cancelled. try returns the attempt's output, its
// counters, and its simulated straggler delay; it receives the attempt's
// span so fault decision sites can attach point events to it.
//
// When tracing is on, every attempt gets a KindTask span under parent (the
// job span) closed with its outcome: ok, fault (wasted counters attached),
// cancelled, or error. A fault that will be retried additionally emits a
// PointRetry on the job span; a task that gives up before starting an
// attempt emits a PointCancel.
//
// worker, when non-nil, names the worker process the just-finished attempt
// ran on (multiprocess backend); it is read after try returns, so the
// backend can bind a worker per attempt. The in-process backend passes nil.
func runTaskAttempts[T any](e *Engine, job *boundJob, phase TaskPhase, taskID int, parent obs.SpanID, cancel <-chan struct{},
	worker func() string,
	try func(attempt int, span obs.SpanID) (T, Counters, float64, error)) (T, Counters, faultCharge, error) {
	var zero T
	var fc faultCharge
	var lastErr error
	var retries int64
	tr := e.cfg.Tracer
	for attempt := 0; attempt < e.cfg.MaxAttempts; attempt++ {
		if cancelled(cancel) {
			if tr != nil {
				e.point(parent, obs.PointCancel, job.Name, taskID, attempt, phase, 0, "")
			}
			return zero, Counters{}, fc, errTaskCancelled
		}
		var span obs.SpanID
		var began time.Time
		if tr != nil {
			span = obs.NewSpanID()
			tr.Begin(obs.Start{ID: span, Parent: parent, Kind: obs.KindTask,
				Name: job.Name, Task: taskID, Attempt: attempt, Phase: phase.String()})
			began = obs.Now()
		}
		out, c, straggler, err := try(attempt, span)
		fc.Straggler += straggler
		var onWorker string
		if tr != nil && worker != nil {
			onWorker = worker()
		}
		if err == nil {
			c.TaskRetries = retries
			if tr != nil {
				tr.End(obs.End{ID: span, Kind: obs.KindTask, Name: job.Name,
					Task: taskID, Attempt: attempt, Phase: phase.String(),
					Outcome:     obs.OutcomeOK,
					RealSeconds: obs.Since(began).Seconds(), SimulatedSeconds: straggler,
					Counters: c, Retries: retries, Worker: onWorker})
			}
			return out, c, fc, nil
		}
		lastErr = err
		if !errors.Is(err, errInjectedFailure) {
			if tr != nil {
				outcome := obs.OutcomeError
				if errors.Is(err, errTaskCancelled) {
					outcome = obs.OutcomeCancelled
				}
				tr.End(obs.End{ID: span, Kind: obs.KindTask, Name: job.Name,
					Task: taskID, Attempt: attempt, Phase: phase.String(),
					Outcome: outcome, Err: err.Error(),
					RealSeconds: obs.Since(began).Seconds(), SimulatedSeconds: straggler,
					Worker: onWorker})
			}
			return zero, Counters{}, fc, err
		}
		fc.Wasted.Add(c)
		retries++
		if tr != nil {
			tr.End(obs.End{ID: span, Kind: obs.KindTask, Name: job.Name,
				Task: taskID, Attempt: attempt, Phase: phase.String(),
				Outcome: obs.OutcomeFault, Err: err.Error(),
				RealSeconds: obs.Since(began).Seconds(), SimulatedSeconds: straggler,
				Wasted: c, Worker: onWorker})
			if attempt+1 < e.cfg.MaxAttempts {
				e.point(parent, obs.PointRetry, job.Name, taskID, attempt, phase, 0, "")
			}
		}
	}
	return zero, Counters{}, fc, fmt.Errorf("task failed after %d attempts: %w", e.cfg.MaxAttempts, lastErr)
}

// mapRecords is the map record loop of every backend: Setup, then per
// record the injected kill point (before record killAt), MapInputRecords,
// Map and the caller's per-record step, then the kill point after the last
// record (killAt == NumRows) and Cleanup. A kill point returns
// errInjectedFailure with the attempt's counters so far in ctx.counters —
// the partial work an injected failure wastes.
func mapRecords(mapper Mapper, ctx *TaskContext, killAt int, step func(i int) error) error {
	if err := mapper.Setup(ctx); err != nil {
		return err
	}
	split := ctx.Split
	n := split.NumRows()
	for i := 0; i < n; i++ {
		if i == killAt {
			return errInjectedFailure
		}
		ctx.counters.MapInputRecords++
		if err := mapper.Map(ctx, split.Offset+i, split.Row(i)); err != nil {
			return err
		}
		if err := step(i); err != nil {
			return err
		}
	}
	if n == killAt {
		return errInjectedFailure
	}
	return mapper.Cleanup(ctx)
}

// reduceLoop is the per-key reduce step of every backend, fed one key
// group at a time by groupRun (in-process) or mergeSegments (worker). An
// injected failure aborts the key loop once killAt input values have been
// consumed, checked before each key group, discarding the attempt's
// partial output and counters exactly like a dying Hadoop reduce attempt.
type reduceLoop struct {
	ctx      *TaskContext
	reducer  TypedReducer
	c        Counters // the attempt's counters so far
	killAt   int      // threshold in consumed input values, -1 = never
	consumed int
	// cancel is the Run's cancellation channel, polled per key group; nil
	// (never cancelled) on a worker, whose driver cancels by not
	// scheduling.
	cancel <-chan struct{}
}

func (l *reduceLoop) group(k string, grouped []rec) error {
	if l.killAt >= 0 && l.consumed >= l.killAt {
		return errInjectedFailure
	}
	if cancelled(l.cancel) {
		return errTaskCancelled
	}
	l.consumed += len(grouped)
	l.c.ReduceInputKeys++
	l.c.ReduceInputVals += int64(len(grouped))
	return l.reducer.ReduceTyped(l.ctx, k, Values{recs: grouped})
}

// commit is the kill point after the last key group (FailFrac ≈ 1): the
// attempt dies before its output is committed.
func (l *reduceLoop) commit() error {
	if l.killAt >= 0 && l.consumed >= l.killAt {
		return errInjectedFailure
	}
	return nil
}
