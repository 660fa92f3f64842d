package mr

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// makeSplits builds splits over sequential 1-D data 0..n-1 (scaled).
func makeSplits(n, numSplits int) []*Split {
	rows := make([]float64, n)
	for i := range rows {
		rows[i] = float64(i)
	}
	var splits []*Split
	base := n / numSplits
	rem := n % numSplits
	off := 0
	for s := 0; s < numSplits; s++ {
		sz := base
		if s < rem {
			sz++
		}
		splits = append(splits, &Split{ID: s, Offset: off, Dim: 1, Rows: rows[off : off+sz]})
		off += sz
	}
	return splits
}

// implSeq numbers the impls funcJob registers, so every call gets a fresh
// registry name.
var implSeq atomic.Int64

// funcJob registers f under a fresh impl name and returns a Job naming it:
// in-process tests use it to run functions built from test state through
// the ordinary Impl path. Tests that run on worker processes register in
// init instead — a re-exec'd worker knows only what init registered.
func funcJob(name string, splits []*Split, f JobFuncs) *Job {
	impl := fmt.Sprintf("test-%s-%d", name, implSeq.Add(1))
	RegisterJobImpl(impl, func([]byte) (JobFuncs, error) { return f, nil })
	return &Job{Name: name, Splits: splits, Impl: impl}
}

// mapFn adapts a stateless map function to JobFuncs.NewMapper.
func mapFn(f MapperFunc) func() Mapper { return func() Mapper { return f } }

// byKey indexes output pairs by key (the last value wins).
func byKey(out *Output) map[string]any {
	m := make(map[string]any, len(out.Pairs))
	for _, p := range out.Pairs {
		m[p.Key] = p.Value
	}
	return m
}

// sumInt64 and sumFloat64 are the test suite's plain sum reducers.
var (
	sumInt64 = TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
		var s int64
		for i := 0; i < values.Len(); i++ {
			s += values.Value(i).(int64)
		}
		ctx.Emit(key, s)
		return nil
	})
	sumFloat64 = TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
		var s float64
		for i := 0; i < values.Len(); i++ {
			s += values.Value(i).(float64)
		}
		ctx.Emit(key, s)
		return nil
	})
)

func init() {
	// test-no-mapper: a builder that forgets the mapper.
	RegisterJobImpl("test-no-mapper", func([]byte) (JobFuncs, error) { return JobFuncs{TypedReducer: sumInt64}, nil })
}

func TestWordCountStyleJob(t *testing.T) {
	// Classic even/odd count: exercises map, shuffle, grouping, reduce.
	engine := Default()
	job := funcJob("evenodd", makeSplits(1000, 7), JobFuncs{
		NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
			if int(row[0])%2 == 0 {
				ctx.Emit("even", int64(1))
			} else {
				ctx.Emit("odd", int64(1))
			}
			return nil
		}),
		TypedReducer: sumInt64,
	})
	job.NumReducers = 3
	out, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	g := byKey(out)
	if g["even"].(int64) != 500 || g["odd"].(int64) != 500 {
		t.Fatalf("counts = %v", g)
	}
	if out.Counters.MapInputRecords != 1000 {
		t.Errorf("map input = %d", out.Counters.MapInputRecords)
	}
	if out.Counters.ReduceInputKeys != 2 {
		t.Errorf("reduce keys = %d", out.Counters.ReduceInputKeys)
	}
}

func TestMapOnlyJob(t *testing.T) {
	engine := Default()
	job := funcJob("maponly", makeSplits(100, 4), JobFuncs{
		NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
			ctx.Emit(fmt.Sprintf("p%d", global), row[0])
			return nil
		}),
	})
	out, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pairs) != 100 {
		t.Fatalf("map-only output = %d pairs", len(out.Pairs))
	}
}

func TestSetupCleanupHooks(t *testing.T) {
	engine := Default()
	var setups, cleanups atomic.Int64
	job := funcJob("hooks", makeSplits(100, 5), JobFuncs{
		NewMapper: func() Mapper {
			return &hookMapper{setups: &setups, cleanups: &cleanups}
		},
	})
	if _, err := engine.Run(job); err != nil {
		t.Fatal(err)
	}
	if setups.Load() != 5 || cleanups.Load() != 5 {
		t.Fatalf("setup=%d cleanup=%d, want 5 each", setups.Load(), cleanups.Load())
	}
}

type hookMapper struct {
	setups, cleanups *atomic.Int64
	local            int
}

func (m *hookMapper) Setup(*TaskContext) error { m.setups.Add(1); return nil }
func (m *hookMapper) Map(ctx *TaskContext, global int, row []float64) error {
	m.local++
	return nil
}
func (m *hookMapper) Cleanup(ctx *TaskContext) error {
	m.cleanups.Add(1)
	ctx.Emit("n", int64(m.local))
	return nil
}

func TestMapperErrorPropagates(t *testing.T) {
	engine := Default()
	boom := errors.New("boom")
	job := funcJob("err", makeSplits(10, 2), JobFuncs{
		NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
			if global == 7 {
				return boom
			}
			return nil
		}),
	})
	_, err := engine.Run(job)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestNoMapperRejected pins the resolution errors: an impl whose builder
// yields no mapper, an unregistered impl name, and a builder error.
func TestNoMapperRejected(t *testing.T) {
	engine := Default()
	if _, err := engine.Run(&Job{Name: "nil", Impl: "test-no-mapper"}); err == nil || !strings.Contains(err.Error(), "no mapper") {
		t.Fatalf("job without mapper: err = %v", err)
	}
	if _, err := engine.Run(&Job{Name: "ghost", Impl: "test-not-registered"}); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("unregistered impl: err = %v", err)
	}
	if _, err := engine.Run(&Job{Name: "bad-spec", Impl: "conf-wordcount", Spec: []byte("neither")}); err == nil || !strings.Contains(err.Error(), "bad-spec") {
		t.Fatalf("builder error: err = %v", err)
	}
}

// TestFaultInjectionRetrySucceeds: with a moderate failure rate and fresh
// mappers per attempt, the job must still produce exact results.
func TestFaultInjectionRetrySucceeds(t *testing.T) {
	engine := NewEngine(Config{Faults: UniformFaults(0.5, 99), MaxAttempts: 10})
	job := funcJob("flaky", makeSplits(1000, 10), JobFuncs{
		NewMapper: func() Mapper {
			// Stateful mapper: accumulates locally, emits in cleanup — a
			// retry must restart from zero.
			return &sumMapper{}
		},
		TypedReducer: sumFloat64,
	})
	out, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(999*1000) / 2
	if got := byKey(out)["sum"].(float64); got != want {
		t.Fatalf("sum = %g, want %g (retries corrupted state)", got, want)
	}
	if out.Counters.TaskRetries == 0 {
		t.Error("expected at least one injected retry at 50% failure rate")
	}
}

type sumMapper struct{ s float64 }

func (m *sumMapper) Setup(*TaskContext) error { return nil }
func (m *sumMapper) Map(ctx *TaskContext, global int, row []float64) error {
	m.s += row[0]
	return nil
}
func (m *sumMapper) Cleanup(ctx *TaskContext) error {
	ctx.Emit("sum", m.s)
	return nil
}

// nopMapper maps every record to nothing.
var nopMapper = mapFn(func(ctx *TaskContext, global int, row []float64) error { return nil })

func TestFaultInjectionExhaustsAttempts(t *testing.T) {
	engine := NewEngine(Config{Faults: UniformFaults(1.0, 1), MaxAttempts: 3})
	job := funcJob("doomed", makeSplits(10, 1), JobFuncs{NewMapper: nopMapper})
	if _, err := engine.Run(job); err == nil {
		t.Fatal("certain failure must exhaust attempts")
	}
}

func TestEngineAccounting(t *testing.T) {
	engine := NewEngine(Config{Cost: DefaultCostModel()})
	job := funcJob("cost", makeSplits(100, 4), JobFuncs{
		NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
			ctx.Emit("k", int64(1))
			return nil
		}),
		TypedReducer: TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error { return nil }),
	})
	out, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if out.SimulatedSeconds < DefaultCostModel().JobStartupSeconds {
		t.Errorf("simulated cost %g below startup", out.SimulatedSeconds)
	}
	if engine.JobsRun() != 1 {
		t.Errorf("jobs run = %d", engine.JobsRun())
	}
	if engine.TotalSimulatedSeconds() != out.SimulatedSeconds {
		t.Error("engine accumulation mismatch")
	}
	engine.ResetAccounting()
	if engine.JobsRun() != 0 || engine.TotalSimulatedSeconds() != 0 {
		t.Error("reset failed")
	}
}

func TestCostModelDisabled(t *testing.T) {
	engine := Default()
	out, err := engine.Run(funcJob("free", makeSplits(10, 1), JobFuncs{NewMapper: nopMapper}))
	if err != nil {
		t.Fatal(err)
	}
	if out.SimulatedSeconds != 0 {
		t.Errorf("disabled cost model charged %g", out.SimulatedSeconds)
	}
}

func TestPartitionDeterministicAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 7, 112} {
		for _, key := range []string{"", "a", "hello", "c42"} {
			p1 := partition(key, n)
			p2 := partition(key, n)
			if p1 != p2 || p1 < 0 || p1 >= n {
				t.Fatalf("partition(%q,%d) = %d,%d", key, n, p1, p2)
			}
		}
	}
}

// TestSingleValue pins the one-record reader: an empty output reads as
// absent, and a record under another key, a second record or a value of
// another type is an error.
func TestSingleValue(t *testing.T) {
	pairs := func(ps ...Pair) *Output { return &Output{Pairs: ps} }
	if v, ok, err := SingleValue[int](pairs(Pair{Key: "a", Value: 1}), "a"); err != nil || !ok || v != 1 {
		t.Errorf("one record: %v, %v, %v", v, ok, err)
	}
	if _, ok, err := SingleValue[int](pairs(), "a"); err != nil || ok {
		t.Errorf("empty output: ok %v, err %v; want absent", ok, err)
	}
	for _, c := range []struct {
		name string
		out  *Output
	}{
		{"other-key", pairs(Pair{Key: "b", Value: 1})},
		{"repeated", pairs(Pair{Key: "a", Value: 1}, Pair{Key: "a", Value: 1})},
		{"extra-key", pairs(Pair{Key: "a", Value: 1}, Pair{Key: "b", Value: 2})},
		{"wrong-type", pairs(Pair{Key: "a", Value: int64(1)})},
	} {
		if _, _, err := SingleValue[int](c.out, "a"); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestSplitAccessors(t *testing.T) {
	s := &Split{ID: 0, Offset: 10, Dim: 2, Rows: []float64{1, 2, 3, 4}}
	if s.NumRows() != 2 {
		t.Fatalf("rows = %d", s.NumRows())
	}
	r := s.Row(1)
	if r[0] != 3 || r[1] != 4 {
		t.Fatalf("row = %v", r)
	}
	empty := &Split{}
	if empty.NumRows() != 0 {
		t.Fatal("empty split rows != 0")
	}
}

func TestEmptySplitsJob(t *testing.T) {
	engine := Default()
	out, err := engine.Run(funcJob("empty", nil, JobFuncs{NewMapper: nopMapper}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pairs) != 0 {
		t.Fatal("empty job produced output")
	}
}

func TestCountersAddAndString(t *testing.T) {
	a := Counters{MapInputRecords: 1, ShuffledBytes: 10}
	a.Add(Counters{MapInputRecords: 2, ShuffledBytes: 5, TaskRetries: 1})
	if a.MapInputRecords != 3 || a.ShuffledBytes != 15 || a.TaskRetries != 1 {
		t.Fatalf("add wrong: %+v", a)
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}

func TestApproxValueBytes(t *testing.T) {
	cases := []struct {
		v    any
		want int64
	}{
		{nil, 0},
		{int64(5), 8},
		{3.14, 8},
		{[]float64{1, 2, 3}, 24},
		{"abcd", 4},
		{struct{}{}, 16},
	}
	for _, c := range cases {
		if got := approxValueBytes(c.v); got != c.want {
			t.Errorf("approxValueBytes(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}
