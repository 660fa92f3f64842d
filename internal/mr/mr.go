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
	"math"

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

// TaskContext is handed to every task attempt. The Emit family routes a
// (key, value) record into the shuffle (for mappers) or into the job output
// (for reducers). EmitF64/EmitI64/EmitInt — and the generic Emit function,
// which dispatches to them — carry scalar payloads through the shuffle
// without boxing them into `any`; the Emit method is the boxed lane for
// structured payloads.
type TaskContext struct {
	// JobName and TaskID identify the attempt.
	JobName string
	TaskID  int
	// Split is the input split for map tasks, nil in reduce tasks.
	Split *Split
	cache map[string]any

	// Map-side emit state (nil in reduce tasks): records accumulate into
	// the attempt's per-partition typed buffers.
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

// emitRec is the single funnel of every emit lane.
func (ctx *TaskContext) emitRec(key string, tag valueTag, num uint64, val any) {
	if ctx.ms == nil {
		// Reduce side: job output is the boxed surface, so scalar lanes box
		// exactly once, here at the edge.
		r := rec{tag: tag, num: num, val: val}
		*ctx.outPairs = append(*ctx.outPairs, Pair{Key: key, Value: r.value()})
		return
	}
	c := ctx.counters
	c.MapOutputRecords++
	r := rec{tag: tag, num: num, val: val}
	size := int64(len(key)) + r.bytes()
	c.ShuffledBytes += size
	if ctx.trackBuf {
		ctx.ms.bufBytes += size
	}
	id := ctx.ms.tab.intern(key, ctx.numReducers)
	p := ctx.ms.tab.part[id]
	r.key = id
	ctx.ms.buckets[p] = append(ctx.ms.buckets[p], r)
}

// Emit outputs a (key, value) pair on the boxed lane. Values the
// caller already holds as `any` ship as-is; fresh scalars passed here box
// at the call site — use EmitF64/EmitI64/EmitInt (or the generic Emit) on
// hot paths instead.
func (ctx *TaskContext) Emit(key string, value any) {
	ctx.emitRec(key, tagAny, 0, value)
}

// EmitF64 outputs a (key, float64) record with no boxing.
func (ctx *TaskContext) EmitF64(key string, value float64) {
	ctx.emitRec(key, tagF64, math.Float64bits(value), nil)
}

// EmitI64 outputs a (key, int64) record with no boxing.
func (ctx *TaskContext) EmitI64(key string, value int64) {
	ctx.emitRec(key, tagI64, uint64(value), nil)
}

// EmitInt outputs a (key, int) record with no boxing. The value round-trips
// as an int (not int64) in Output.Pairs and Values.Value.
func (ctx *TaskContext) EmitInt(key string, value int) {
	ctx.emitRec(key, tagInt, uint64(int64(value)), nil)
}

// Emit is the generic typed emit: scalar types dispatch to the unboxed
// lanes at compile time, everything else ships on the boxed lane exactly
// like ctx.Emit. Equivalent outputs either way — the typed lanes only
// change what allocates, never what the reducer or Output.Pairs observes.
func Emit[V any](ctx *TaskContext, key string, value V) {
	switch v := any(value).(type) {
	case float64:
		ctx.EmitF64(key, v)
	case int64:
		ctx.EmitI64(key, v)
	case int:
		ctx.EmitInt(key, v)
	default:
		ctx.emitRec(key, tagAny, 0, v)
	}
}

// Values is a typed, read-only view over one key's shuffled values, in the
// engine's deterministic delivery order (map-task order, then emission
// order within a task). Scalar accessors read payloads without interface
// boxing; Value boxes on demand for mixed or structured payloads.
//
// The view borrows the engine's pooled shuffle buffers: it is valid only
// for the duration of the ReduceTyped call it was passed to
// and must not be retained or written through.
type Values struct {
	recs []rec
}

// Len returns the number of values.
func (v Values) Len() int { return len(v.recs) }

// Float64 returns value i as a float64, panicking when the value is not a
// float64.
func (v Values) Float64(i int) float64 {
	r := &v.recs[i]
	if r.tag == tagF64 {
		return math.Float64frombits(r.num)
	}
	return r.val.(float64)
}

// Int64 returns value i as an int64, panicking on type mismatch.
func (v Values) Int64(i int) int64 {
	r := &v.recs[i]
	if r.tag == tagI64 {
		return int64(r.num)
	}
	return r.val.(int64)
}

// Int returns value i as an int, panicking on type mismatch.
func (v Values) Int(i int) int {
	r := &v.recs[i]
	if r.tag == tagInt {
		return int(int64(r.num))
	}
	return r.val.(int)
}

// Value returns value i boxed as `any` — the accessor for
// structured payloads (slices, structs). Scalar lanes pay their boxing
// allocation here, per call.
func (v Values) Value(i int) any { return v.recs[i].value() }

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
