package mr

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"p3cmr/internal/obs"
)

// Micro-benchmarks for the engine's hot paths:
//
//   - MapHeavy: per-record compute with one emit per task — the shape of
//     the P3C+-MR pipeline's jobs, whose mappers accumulate locally
//     (histograms §5.1, supports §5.3, moments §5.4, min/max §5.7) and
//     emit partials in Cleanup. Measures task scheduling + barrier overhead.
//   - ShuffleHeavy: one emit per record across 512 keys. Measures
//     partition + collection + grouping cost.
//   - CombinerOff: the same one-emit-per-record shape over 64 keys. The
//     name is historical (its twin measured the retired map-side combiner)
//     and is kept so its baseline key carries over.
//   - WideKey: shuffle-heavy with ~64-byte keys. Measures the per-byte cost
//     of key interning and grouping.
//
// The benchmarks drive Emit and a TypedReducer through registered impls,
// including impl resolution on every Run. The shuffle benchmarks emit from
// a value table boxed once at init, so allocs/op counts the engine's
// allocations rather than the mapper's interface conversions.
//
// Each engine benchmark runs untimed warmup jobs before ResetTimer so the
// engine's buffer pools reach steady state (see benchRunJob); at
// -benchtime 1x the first iteration would otherwise be charged the one-off
// pool population cost.
//
// Run with: go test -bench=. -benchmem ./internal/mr/
const (
	benchRows   = 20000
	benchDim    = 8
	benchSplits = 16
	benchPar    = 4
)

func benchMakeSplits(n, dim, numSplits int) []*Split {
	rows := make([]float64, n*dim)
	for i := range rows {
		rows[i] = float64(i%97) * 0.5
	}
	splits := make([]*Split, 0, numSplits)
	base := n / numSplits
	rem := n % numSplits
	off := 0
	for s := 0; s < numSplits; s++ {
		sz := base
		if s < rem {
			sz++
		}
		splits = append(splits, &Split{ID: s, Offset: off, Dim: dim, Rows: rows[off*dim : (off+sz)*dim]})
		off += sz
	}
	return splits
}

// benchKeys precomputes a key table so fmt allocations never pollute the
// engine measurement.
func benchKeys(n int, width int) []string {
	keys := make([]string, n)
	for i := range keys {
		k := fmt.Sprintf("k%04d", i)
		if pad := width - len(k); pad > 0 {
			k += strings.Repeat("x", pad)
		}
		keys[i] = k
	}
	return keys
}

// benchShape is one shuffle benchmark's input: a key table and matching
// value table, built once at package init so fmt allocations and value
// boxing never pollute the engine measurement.
type benchShape struct {
	keys []string
	vals []any
}

func newBenchShape(numKeys, width int) benchShape {
	return benchShape{keys: benchKeys(numKeys, width), vals: benchVals(numKeys)}
}

// benchShapes are the bench-shuffle impl's inputs; a job's Spec names one.
var benchShapes = map[string]benchShape{
	"shuffle-heavy": newBenchShape(512, 0),
	"combiner-off":  newBenchShape(64, 0),
	"wide-key":      newBenchShape(512, 64),
}

func init() {
	RegisterJobImpl("bench-map-heavy", func([]byte) (JobFuncs, error) {
		return JobFuncs{
			NewMapper:    func() Mapper { return &benchSumTaskMapper{} },
			TypedReducer: sumFloat64,
		}, nil
	})
	RegisterJobImpl("bench-shuffle", func(spec []byte) (JobFuncs, error) {
		sh, ok := benchShapes[string(spec)]
		if !ok {
			return JobFuncs{}, fmt.Errorf("bench-shuffle: unknown shape %q", spec)
		}
		return JobFuncs{
			NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
				ctx.Emit(sh.keys[global%len(sh.keys)], sh.vals[global%len(sh.vals)])
				return nil
			}),
			TypedReducer: sumFloat64,
		}, nil
	})
}

// benchRunJob drives mkJob through the engine with untimed warmup runs
// (pool steady state) and then b.N timed runs. One warmup is not enough
// for a steady state: a sync.Pool's per-P private slot is invisible to the
// other Ps, and a collection empties the pools, so at -benchtime 1x
// allocs/op flipped from run to run between the steady state and a cold
// start (~610 vs ~830 on ShuffleHeavy). Five warmups with the collector
// off until the timed runs end stock every P. The allocation gate
// measures the steady state.
func benchRunJob(b *testing.B, engine *Engine, mkJob func() *Job, wantPairs int) {
	b.Helper()
	b.ReportAllocs()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() {
		out, err := engine.Run(mkJob())
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Pairs) != wantPairs {
			b.Fatalf("output = %d pairs, want %d", len(out.Pairs), wantPairs)
		}
	}
	for i := 0; i < 5; i++ {
		run()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkMapHeavy(b *testing.B) {
	splits := benchMakeSplits(benchRows, benchDim, benchSplits)
	engine := NewEngine(Config{Parallelism: benchPar, NumReducers: 4})
	benchRunJob(b, engine, func() *Job {
		return &Job{Name: "bench-map-heavy", Splits: splits, Impl: "bench-map-heavy"}
	}, 1)
}

type benchSumTaskMapper struct{ s float64 }

func (m *benchSumTaskMapper) Setup(*TaskContext) error { return nil }
func (m *benchSumTaskMapper) Map(ctx *TaskContext, global int, row []float64) error {
	for _, v := range row {
		m.s += v * v
	}
	return nil
}
func (m *benchSumTaskMapper) Cleanup(ctx *TaskContext) error {
	ctx.Emit("sum", m.s)
	return nil
}

func benchVals(n int) []any {
	vals := make([]any, n)
	for i := range vals {
		vals[i] = float64(i%13) * 0.25
	}
	return vals
}

func benchShuffle(b *testing.B, shape string) {
	benchShuffleEngine(b, shape, NewEngine(Config{Parallelism: benchPar, NumReducers: 4}))
}

func benchShuffleEngine(b *testing.B, shape string, engine *Engine) {
	splits := benchMakeSplits(benchRows, benchDim, benchSplits)
	spec := []byte(shape)
	benchRunJob(b, engine, func() *Job {
		return &Job{Name: "bench-shuffle", Splits: splits, Impl: "bench-shuffle", Spec: spec}
	}, len(benchShapes[shape].keys))
}

func BenchmarkShuffleHeavy(b *testing.B) {
	benchShuffle(b, "shuffle-heavy")
}

func BenchmarkCombinerOff(b *testing.B) {
	benchShuffle(b, "combiner-off")
}

func BenchmarkWideKey(b *testing.B) {
	benchShuffle(b, "wide-key")
}

// BenchmarkShuffleHeavyTraced prices the tracing overhead: same shape as
// ShuffleHeavy with a JSONL tracer writing to io.Discard. The nil-tracer
// benchmarks above stay the zero-overhead pin; this one bounds the cost of
// turning tracing on (span + event marshalling per task attempt).
func BenchmarkShuffleHeavyTraced(b *testing.B) {
	tr := obs.NewJSONLTracer(io.Discard)
	engine := NewEngine(Config{Parallelism: benchPar, NumReducers: 4, Tracer: tr})
	benchShuffleEngine(b, "shuffle-heavy", engine)
}

// BenchmarkMapHeavyTraced mirrors MapHeavy with tracing enabled.
func BenchmarkMapHeavyTraced(b *testing.B) {
	splits := benchMakeSplits(benchRows, benchDim, benchSplits)
	tr := obs.NewJSONLTracer(io.Discard)
	engine := NewEngine(Config{Parallelism: benchPar, NumReducers: 4, Tracer: tr})
	benchRunJob(b, engine, func() *Job {
		return &Job{Name: "bench-map-heavy", Splits: splits, Impl: "bench-map-heavy"}
	}, 1)
}

// BenchmarkPartition isolates the key→reducer hash on a mix of key widths.
// The key tables are built before ResetTimer: at -benchtime 1x (the bench
// harness setting), b.N is 1 and setup allocations would otherwise dominate
// allocs/op — the hash itself is allocation-free (see TestPartitionAllocFree).
func BenchmarkPartition(b *testing.B) {
	keys := benchKeys(512, 0)
	wide := benchKeys(512, 64)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += partition(keys[i%len(keys)], 112)
		sink += partition(wide[i%len(wide)], 112)
	}
	_ = sink
}

// TestPartitionAllocFree pins the property BenchmarkPartition's allocs/op
// column is meant to show: hashing a key allocates nothing. The benchmark
// number once drifted to 2564 allocs/op because setup ran inside the
// measured window; this guard can't be fooled by harness settings.
func TestPartitionAllocFree(t *testing.T) {
	keys := benchKeys(64, 0)
	wide := benchKeys(64, 64)
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for i := range keys {
			sink += partition(keys[i], 112)
			sink += partition(wide[i], 112)
		}
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("partition allocates: %v allocs/run, want 0", allocs)
	}
}
