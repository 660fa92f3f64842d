package mr

import (
	"fmt"
	"reflect"
	"testing"
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

// TestTypedEmitMatchesBoxed runs the same logical job once through the
// boxed emit lane (ctx.Emit, values read back through Values.Value) and
// once through the scalar lane (EmitF64, Values.Float64) and requires
// byte-for-byte identical Output: same pairs in the same order, same
// counters. This is the core compat oracle of the typed plane.
func TestTypedEmitMatchesBoxed(t *testing.T) {
	splits := typedTestSplits(4, 32, 3)
	key := func(g int) string { return fmt.Sprintf("k%d", g%7) }

	boxed := JobFuncs{
		NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
			ctx.Emit(key(global), row[0]+row[1])
			return nil
		}),
		TypedReducer: TypedReducerFunc(func(ctx *TaskContext, k string, values Values) error {
			sum := 0.0
			for i := 0; i < values.Len(); i++ {
				sum += values.Value(i).(float64)
			}
			ctx.Emit(k, sum)
			return nil
		}),
	}
	typed := JobFuncs{
		NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
			ctx.EmitF64(key(global), row[0]+row[1])
			return nil
		}),
		TypedReducer: sumFloat64,
	}

	for _, par := range []int{1, 4} {
		// Same job name: counters embed no name, spans do; keep
		// apples-to-apples.
		j1, j2 := funcJob("boxed", splits, boxed), funcJob("boxed", splits, typed)
		j1.NumReducers, j2.NumReducers = 3, 3
		o1, err := NewEngine(Config{Parallelism: par}).Run(j1)
		if err != nil {
			t.Fatalf("par %d: boxed: %v", par, err)
		}
		o2, err := NewEngine(Config{Parallelism: par}).Run(j2)
		if err != nil {
			t.Fatalf("par %d: typed: %v", par, err)
		}
		if !reflect.DeepEqual(o1.Pairs, o2.Pairs) {
			t.Fatalf("par %d: typed pairs diverge from boxed\nboxed: %v\ntyped: %v", par, o1.Pairs, o2.Pairs)
		}
		if o1.Counters != o2.Counters {
			t.Fatalf("par %d: counters diverge\nboxed: %+v\ntyped: %+v", par, o1.Counters, o2.Counters)
		}
	}
}

// TestTypedScalarRoundTrip pins the boxed dynamic type of every scalar lane:
// an emitted int must come back as int (not int64), an int64 as int64, a
// float64 as float64 — through map-only output.
func TestTypedScalarRoundTrip(t *testing.T) {
	splits := typedTestSplits(1, 4, 1)
	job := funcJob("roundtrip", splits, JobFuncs{
		NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
			Emit(ctx, "f", 1.5)
			Emit(ctx, "i", int64(-7))
			Emit(ctx, "n", 42)
			Emit(ctx, "s", []float64{1, 2})
			return nil
		}),
	})
	out, err := Default().Run(job)
	if err != nil {
		t.Fatal(err)
	}
	got := byKey(out)
	if v := got["f"]; v != any(1.5) {
		t.Fatalf("float64 round-trip: got %T %v", v, v)
	}
	if v := got["i"]; v != any(int64(-7)) {
		t.Fatalf("int64 round-trip: got %T %v", v, v)
	}
	if v := got["n"]; v != any(42) {
		t.Fatalf("int round-trip: got %T %v (must stay int, not int64)", v, v)
	}
	if v, ok := got["s"].([]float64); !ok || len(v) != 2 {
		t.Fatalf("slice round-trip: got %T", got["s"])
	}
}

// TestValuesAccessors exercises every Values accessor against a reducer's
// mixed-lane input.
func TestValuesAccessors(t *testing.T) {
	splits := typedTestSplits(1, 1, 1)
	job := funcJob("accessors", splits, JobFuncs{
		NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
			ctx.EmitF64("k", 0.5)
			ctx.EmitI64("k", 9)
			ctx.EmitInt("k", 3)
			ctx.Emit("k", "str")
			return nil
		}),
		TypedReducer: TypedReducerFunc(func(ctx *TaskContext, k string, values Values) error {
			if values.Len() != 4 {
				t.Errorf("Len = %d, want 4", values.Len())
			}
			if got := values.Float64(0); got != 0.5 {
				t.Errorf("Float64(0) = %v", got)
			}
			if got := values.Int64(1); got != 9 {
				t.Errorf("Int64(1) = %v", got)
			}
			if got := values.Int(2); got != 3 {
				t.Errorf("Int(2) = %v", got)
			}
			want := []any{0.5, int64(9), 3, "str"}
			for i, w := range want {
				if got := values.Value(i); got != w {
					t.Errorf("Value(%d) = %#v, want %#v", i, got, w)
				}
			}
			ctx.EmitInt(k, values.Len())
			return nil
		}),
	})
	out, err := Default().Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := out.Single("k"); !ok || v != any(4) {
		t.Fatalf("output = %v", out.Pairs)
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
					ctx.EmitF64(fmt.Sprintf("k%d", global%9), row[0])
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
