package mr

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// typedTestSplits builds a small deterministic input.
func typedTestSplits(splits, rows, dim int) []*Split {
	out := make([]*Split, splits)
	global := 0
	for s := 0; s < splits; s++ {
		sp := &Split{ID: s, Offset: global, Dim: dim}
		for r := 0; r < rows; r++ {
			for d := 0; d < dim; d++ {
				sp.Rows = append(sp.Rows, float64(global*dim+d)*0.25)
			}
			global++
		}
		out[s] = sp
	}
	return out
}

// scalarValues is what conf-scalars emits per input row: one value of each
// scalar wire kind plus a slice, each under its own key.
var scalarValues = []Pair{
	{Key: "f", Value: 1.5},
	{Key: "i", Value: int64(-7)},
	{Key: "n", Value: 42},
	{Key: "s", Value: []float64{1, 2}},
}

func init() {
	// conf-scalars: the reducer fails on any value whose dynamic type or
	// content drifted in the shuffle, then commits one value per key, so
	// the output crosses the pairs codec as well.
	RegisterJobImpl("conf-scalars", func([]byte) (JobFuncs, error) {
		want := make(map[string]any, len(scalarValues))
		for _, p := range scalarValues {
			want[p.Key] = p.Value
		}
		return JobFuncs{
			NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
				for _, p := range scalarValues {
					ctx.Emit(p.Key, p.Value)
				}
				return nil
			}),
			TypedReducer: TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
				for i := 0; i < values.Len(); i++ {
					if v := values.Value(i); !reflect.DeepEqual(v, want[key]) {
						return fmt.Errorf("key %q value %d: got %T %v, want %T %v", key, i, v, v, want[key], want[key])
					}
				}
				ctx.Emit(key, values.Value(0))
				return nil
			}),
		}, nil
	})
}

// TestTypedScalarRoundTrip pins the dynamic type of every scalar value: an
// emitted int must come back as int (not int64), an int64 as int64, a
// float64 as float64 — through the shuffle and into the job output, on
// every backend. On worker processes only the wire value kinds keep int
// and int64 apart.
func TestTypedScalarRoundTrip(t *testing.T) {
	for _, backend := range BackendNames() {
		job := &Job{Name: "roundtrip", Splits: typedTestSplits(2, 4, 1), Impl: "conf-scalars", NumReducers: 2}
		out, err := NewEngine(Config{Backend: backend, SpillDir: t.TempDir()}).Run(job)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		got := byKey(out)
		for _, w := range scalarValues {
			if v := got[w.Key]; !reflect.DeepEqual(v, w.Value) {
				t.Errorf("%s: key %q: got %T %v, want %T %v", backend, w.Key, v, v, w.Value, w.Value)
			}
		}
	}
}

// TestValuesAccessors exercises the Values accessors against a reducer's
// mixed-type input.
func TestValuesAccessors(t *testing.T) {
	splits := typedTestSplits(1, 1, 1)
	want := []any{0.5, int64(9), 3, "str"}
	job := funcJob("accessors", splits, JobFuncs{
		NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
			for _, v := range want {
				ctx.Emit("k", v)
			}
			return nil
		}),
		TypedReducer: TypedReducerFunc(func(ctx *TaskContext, k string, values Values) error {
			if values.Len() != len(want) {
				t.Errorf("Len = %d, want %d", values.Len(), len(want))
			}
			for i, w := range want {
				if got := values.Value(i); got != w {
					t.Errorf("Value(%d) = %#v, want %#v", i, got, w)
				}
			}
			ctx.Emit(k, values.Len())
			return nil
		}),
	})
	out, err := Default().Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := out.Single("k"); !ok || v != any(len(want)) {
		t.Fatalf("output = %v", out.Pairs)
	}
}

// TestRecFootprint pins a shuffle record at a key id plus one interface.
// Map-only jobs (light membership, outlier detection, BoW) hold one rec
// per input point, so a field added to rec costs memory per point.
func TestRecFootprint(t *testing.T) {
	got := unsafe.Sizeof(rec{})
	if limit := unsafe.Sizeof(uintptr(0)) + unsafe.Sizeof(any(nil)); got > limit {
		t.Fatalf("unsafe.Sizeof(rec{}) = %d bytes, want <= %d", got, limit)
	}
}

// TestJobValidation pins the registry's registration contract: an empty
// name, a nil builder and a duplicate name are programmer errors that
// panic at registration, and a registered job never mutates the caller's
// Job.
func TestJobValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: RegisterJobImpl did not panic", name)
			}
		}()
		f()
	}
	build := func([]byte) (JobFuncs, error) { return JobFuncs{NewMapper: nopMapper}, nil }
	mustPanic("empty name", func() { RegisterJobImpl("", build) })
	mustPanic("nil builder", func() { RegisterJobImpl("test-nil-builder", nil) })
	mustPanic("duplicate", func() { RegisterJobImpl("conf-wordcount", build) })

	job := chaosJob(100, 2, 2)
	before := *job
	if _, err := Default().Run(job); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*job, before) {
		t.Errorf("Run mutated the caller's Job:\n got %+v\nwant %+v", *job, before)
	}
}

// TestPoolReuseAcrossJobs runs many jobs back-to-back on one engine (the
// pools' steady state) and checks outputs stay identical run over run —
// with and without DebugPoisonPools, which would corrupt output loudly if
// any recycled buffer were still referenced.
func TestPoolReuseAcrossJobs(t *testing.T) {
	for _, poison := range []bool{false, true} {
		e := NewEngine(Config{Parallelism: 4, DebugPoisonPools: poison})
		var first *Output
		for iter := 0; iter < 5; iter++ {
			job := funcJob("steady", typedTestSplits(4, 25, 2), JobFuncs{
				NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
					ctx.Emit(fmt.Sprintf("k%d", global%9), row[0])
					return nil
				}),
				TypedReducer: sumFloat64,
			})
			job.NumReducers = 3
			out, err := e.Run(job)
			if err != nil {
				t.Fatalf("poison=%v iter %d: %v", poison, iter, err)
			}
			if first == nil {
				first = out
				continue
			}
			if !reflect.DeepEqual(first.Pairs, out.Pairs) {
				t.Fatalf("poison=%v iter %d: output drifted across pooled runs", poison, iter)
			}
			if first.Counters != out.Counters {
				t.Fatalf("poison=%v iter %d: counters drifted across pooled runs", poison, iter)
			}
		}
	}
}
