package mr

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestSplitMemoBuildsOncePerKey(t *testing.T) {
	type keyA struct{}
	s := &Split{Dim: 1, Rows: []float64{1, 2}}
	builds := 0
	build := func(v int) func() any {
		return func() any { builds++; return &v }
	}
	a := s.Memo(keyA{}, build(1))
	if got := s.Memo(keyA{}, build(2)); got != a {
		t.Fatalf("second Memo under one key returned %v, want the first value %v", got, a)
	}
	if b := s.Memo("b", build(3)); b == a || *b.(*int) != 3 {
		t.Fatalf("a second key shares the first key's value")
	}
	if builds != 2 {
		t.Fatalf("%d builds for two keys", builds)
	}
}

// TestSplitMemoConcurrent: concurrent callers of one key (run under -race)
// get one value from one build.
func TestSplitMemoConcurrent(t *testing.T) {
	s := &Split{Dim: 1, Rows: []float64{1}}
	var builds atomic.Int64
	vals := make([]any, 16)
	var wg sync.WaitGroup
	for i := range vals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i] = s.Memo("k", func() any { builds.Add(1); return new(int) })
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("%d builds, want 1", builds.Load())
	}
	for _, v := range vals {
		if v != vals[0] {
			t.Fatal("callers got different values")
		}
	}
}

// memoMapper reads its split's memo entry in Cleanup, counting builds.
type memoMapper struct{ builds *atomic.Int64 }

func (memoMapper) Setup(*TaskContext) error               { return nil }
func (memoMapper) Map(*TaskContext, int, []float64) error { return nil }
func (m memoMapper) Cleanup(ctx *TaskContext) error {
	n := ctx.Split.Memo("rows", func() any { m.builds.Add(1); return ctx.Split.NumRows() }).(int)
	ctx.Emit("rows", int64(n))
	return nil
}

// TestSplitMemoLivesAcrossJobs pins the memo's lifetime on the in-process
// backend, whose jobs share the caller's splits: a second job over the same
// splits, and retried attempts under a fault plan, build nothing — with
// tasks run one at a time (Parallelism 1) and concurrently.
func TestSplitMemoLivesAcrossJobs(t *testing.T) {
	for _, tc := range []struct {
		name string
		par  int
	}{{"sequential", 1}, {"inprocess", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			splits := makeSplits(1000, 4)
			var builds atomic.Int64
			f := JobFuncs{NewMapper: func() Mapper { return memoMapper{&builds} }, TypedReducer: sumInt64}
			e := NewEngine(Config{Parallelism: tc.par, Faults: RateFaultPlan{MapRate: 0.5, Seed: 3}, MaxAttempts: 12})
			for range 2 {
				out, err := e.Run(funcJob("memo", splits, f))
				if err != nil {
					t.Fatal(err)
				}
				if got := byKey(out)["rows"]; got != int64(1000) {
					t.Fatalf("rows = %v, want 1000", got)
				}
			}
			if builds.Load() != int64(len(splits)) {
				t.Fatalf("%d builds over %d splits and two jobs, want one per split", builds.Load(), len(splits))
			}
			if e.TotalCounters().TaskRetries == 0 {
				t.Fatal("no retries injected")
			}
		})
	}
}
