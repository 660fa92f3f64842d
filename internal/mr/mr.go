// Package mr is a from-scratch, in-process MapReduce engine with Hadoop-like
// semantics: input splits, record-at-a-time mappers with setup/cleanup
// hooks, hash partitioning, per-key grouping, and reducers. Jobs that
// aggregate do so inside the mapper and emit partials from Cleanup, so no
// combiner pass sits between map and shuffle. It exists because the
// reproduced paper (P3C+-MR, EDBT 2014) expresses every phase of its
// clustering pipeline as MapReduce jobs; this engine runs those jobs with
// real goroutine parallelism on one machine.
//
// Beyond execution, the engine keeps the bookkeeping a cluster would:
//   - a distributed cache (read-only job-scoped side data),
//   - counters (records read/emitted, bytes shuffled),
//   - a cost model charging per-job startup overhead and per-byte I/O, so
//     that runtime *shape* experiments ("more MR jobs ⇒ slower") reproduce
//     the paper's Figure 7 without a physical cluster,
//   - deterministic fault injection across the full task lifecycle — map
//     and reduce attempts can be failed mid-flight or delayed as
//     simulated stragglers by a pluggable FaultPlan — with per-task retry,
//     cooperative cancellation of sibling tasks on permanent failure, and
//     wasted-attempt cost accounting, mirroring Hadoop's error tolerance
//     (see DESIGN.md §3c for the fault-model contract).
package mr

import (
	"fmt"

	"p3cmr/internal/obs"
)

// Split is one input partition of a vector data set. Rows holds
// len(Rows)/Dim row-major points; Offset is the global index of the first
// row, so a mapper can address points globally.
type Split struct {
	ID     int
	Offset int
	Dim    int
	Rows   []float64
}

// NumRows returns the number of points in the split.
func (s *Split) NumRows() int {
	if s.Dim == 0 {
		return 0
	}
	return len(s.Rows) / s.Dim
}

// Row returns the i-th point of the split (a view, not a copy).
func (s *Split) Row(i int) []float64 { return s.Rows[i*s.Dim : (i+1)*s.Dim] }

// Pair is an intermediate or output (key, value) record.
type Pair struct {
	Key   string
	Value any
}

// Mapper consumes one split record-at-a-time. Implementations must be
// re-runnable: a failed task attempt is retried from scratch on the same
// split, so mappers must not mutate shared state outside the TaskContext.
type Mapper interface {
	// Setup is called once before the first record of a task attempt.
	Setup(ctx *TaskContext) error
	// Map is called for every record; global is the global row index.
	Map(ctx *TaskContext, global int, row []float64) error
	// Cleanup is called after the last record (Hadoop's cleanup hook); the
	// MVB job of §5.5 uses it to emit per-split medians.
	Cleanup(ctx *TaskContext) error
}

// MapperFunc adapts a plain function to the Mapper interface.
type MapperFunc func(ctx *TaskContext, global int, row []float64) error

// Setup implements Mapper.
func (f MapperFunc) Setup(*TaskContext) error { return nil }

// Map implements Mapper.
func (f MapperFunc) Map(ctx *TaskContext, global int, row []float64) error {
	return f(ctx, global, row)
}

// Cleanup implements Mapper.
func (f MapperFunc) Cleanup(*TaskContext) error { return nil }

// TypedReducer aggregates all values of one key. Values arrive as a Values
// view over the shuffle's records, so scalar payloads are read without
// interface boxing. Implementations must be re-runnable: a failed reduce
// attempt is retried from the same shuffled input, so reducers must treat
// values — and whatever the values reference, e.g. shipped slices — as
// read-only. Folding into the first value in place would double-count on
// retry; accumulate into fresh state instead. The view (and any slice
// obtained from it) must not be retained after ReduceTyped returns, because
// its backing buffers are recycled once the job completes.
type TypedReducer interface {
	ReduceTyped(ctx *TaskContext, key string, values Values) error
}

// TypedReducerFunc adapts a plain function to the TypedReducer interface.
type TypedReducerFunc func(ctx *TaskContext, key string, values Values) error

// ReduceTyped implements TypedReducer.
func (f TypedReducerFunc) ReduceTyped(ctx *TaskContext, key string, values Values) error {
	return f(ctx, key, values)
}

// Job describes one MapReduce execution as data: a registered
// implementation (Impl, resolved through RegisterJobImpl on every backend)
// plus its parameters (Spec) and per-point side data (Cache). Because a Job
// holds no function values it can cross a process boundary, so the same
// Job runs unchanged on the in-process, simulated and multiprocess
// backends.
type Job struct {
	// Name labels the job in counters, fault plans, spans and error
	// messages.
	Name string
	// Splits is the input. A nil/empty slice yields an empty job output.
	Splits []*Split
	// NumReducers defaults to the engine configuration. The paper's
	// histogram and moment jobs use a single reducer.
	NumReducers int
	// Cache is the distributed cache: read-only per-point side data (a
	// membership column, say) shipped to every task. In-process it is
	// passed by reference; the multiprocess backend wire-encodes it once
	// per worker. Small parameters and models belong in Spec instead.
	Cache map[string]any
	// TraceParent is the span this job's trace span nests under (a pipeline
	// phase span, typically). Zero means root; ignored without a
	// Config.Tracer.
	TraceParent obs.SpanID
	// Impl names the registered job implementation (RegisterJobImpl) and
	// is required. Spec is its opaque parameter blob, handed to the
	// builder — once in the driver and once in every worker process.
	Impl string
	Spec []byte
}

// Output is the collected result of a job.
type Output struct {
	// Pairs holds reducer (or mapper, for map-only jobs) output. Order is
	// deterministic for a fixed split layout and reducer count: reducer
	// outputs concatenate in partition order (map-only: split order),
	// independent of Parallelism and task scheduling.
	Pairs []Pair
	// Counters are the accumulated job counters. Only successful task
	// attempts contribute: a failed attempt's partial counters are diverted
	// into Wasted, so Counters is bit-identical to a fault-free run.
	Counters Counters
	// Wasted aggregates the counters of failed task attempts — work the
	// modeled cluster performed and threw away. It is charged by the cost
	// model (retries cost time) but never folded into Counters.
	Wasted Counters
	// SimulatedSeconds is the modeled wall-clock cost of the job under the
	// engine's cost model (startup + compute + shuffle I/O + re-executed
	// attempts + injected straggler delays).
	SimulatedSeconds float64
}

// Single returns the value of the given key and ok=false when absent or
// duplicated.
func (o *Output) Single(key string) (any, bool) {
	var v any
	n := 0
	for _, p := range o.Pairs {
		if p.Key == key {
			v = p.Value
			n++
		}
	}
	return v, n == 1
}

// Counters accumulate job statistics. The type lives in internal/obs (so
// trace span events can embed counter deltas without an import cycle);
// this alias keeps `mr.Counters` the engine-facing name.
type Counters = obs.Counters

// TaskContext is handed to every task attempt. Emit routes a (key, value)
// record into the shuffle (for mappers) or into the job output (for
// reducers).
type TaskContext struct {
	// JobName and TaskID identify the attempt.
	JobName string
	TaskID  int
	// Split is the input split for map tasks, nil in reduce tasks.
	Split *Split
	cache map[string]any

	// Map-side emit state (nil in reduce tasks): records accumulate into
	// the attempt's per-partition buffers.
	ms          *mapState
	counters    *Counters
	numReducers int
	// trackBuf makes emits maintain ms.bufBytes, the spill-threshold
	// watermark of the multiprocess backend's map workers. Off (free) for
	// in-process execution.
	trackBuf bool
	// Reduce-side output (nil in map tasks).
	outPairs *[]Pair
}

// Emit outputs a (key, value) pair. Mappers should aggregate and emit
// partials from Cleanup rather than one fresh scalar per record: a scalar
// boxes at the call site.
func (ctx *TaskContext) Emit(key string, value any) {
	if ctx.ms == nil {
		*ctx.outPairs = append(*ctx.outPairs, Pair{Key: key, Value: value})
		return
	}
	c := ctx.counters
	c.MapOutputRecords++
	size := int64(len(key)) + approxValueBytes(value)
	c.ShuffledBytes += size
	if ctx.trackBuf {
		ctx.ms.bufBytes += size
	}
	id := ctx.ms.tab.intern(key, ctx.numReducers)
	p := ctx.ms.tab.part[id]
	ctx.ms.buckets[p] = append(ctx.ms.buckets[p], rec{key: id, val: value})
}

// Values is a read-only view over one key's shuffled values, in the
// engine's deterministic delivery order (map-task order, then emission
// order within a task).
//
// The view borrows the engine's pooled shuffle buffers: it is valid only
// for the duration of the ReduceTyped call it was passed to
// and must not be retained or written through.
type Values struct {
	recs []rec
}

// Len returns the number of values.
func (v Values) Len() int { return len(v.recs) }

// Value returns value i as emitted.
func (v Values) Value(i int) any { return v.recs[i].val }

// CacheValue fetches a distributed-cache entry; ok is false when missing.
func (ctx *TaskContext) CacheValue(name string) (any, bool) {
	v, ok := ctx.cache[name]
	return v, ok
}

// MustCache fetches a distributed-cache entry and panics when absent —
// appropriate for entries the job cannot run without.
func (ctx *TaskContext) MustCache(name string) any {
	v, ok := ctx.cache[name]
	if !ok {
		panic(fmt.Sprintf("mr: job %q task %d: missing cache entry %q", ctx.JobName, ctx.TaskID, name))
	}
	return v
}

// FNV-1a 32-bit constants (FNV spec; must match hash/fnv so partition
// assignments never move keys across an engine upgrade).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// partition assigns a key to one of n reduce partitions by FNV-1a hash,
// inlined over the string bytes: no hasher object and no []byte(key) copy
// per pair. Bit-identical to hash/fnv.New32a (pinned by TestPartitionMatchesFNV).
func partition(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return int(h % uint32(n))
}
