package mr

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPartitionMatchesFNV pins the inlined FNV-1a partitioner to the
// hash/fnv reference implementation over a spread of key shapes and
// partition counts, so the allocation-free rewrite cannot silently move
// keys between reducers.
func TestPartitionMatchesFNV(t *testing.T) {
	keys := []string{"", "a", "ab", "even", "odd", "sum", "supports", "h0", "h127", "t3_9"}
	for i := 0; i < 64; i++ {
		keys = append(keys, fmt.Sprintf("c%04d", i*37))
	}
	for _, n := range []int{1, 2, 3, 4, 7, 16, 112, 1000} {
		for _, key := range keys {
			h := fnv.New32a()
			h.Write([]byte(key))
			want := 0
			if n > 1 {
				want = int(h.Sum32() % uint32(n))
			}
			if got := partition(key, n); got != want {
				t.Fatalf("partition(%q, %d) = %d, fnv reference = %d", key, n, got, want)
			}
		}
	}
}

// TestPartitionPinnedAssignments hardcodes golden partition assignments.
// If this test fails, the hash function changed and every persisted or
// expected shuffle layout in the pipeline moves — that must be a deliberate
// decision, never a refactoring accident.
func TestPartitionPinnedAssignments(t *testing.T) {
	cases := []struct {
		key          string
		p4, p7, p112 int
	}{
		{"", 1, 2, 37},
		{"even", 1, 2, 65},
		{"odd", 2, 1, 78},
		{"sum", 0, 0, 56},
		{"supports", 1, 0, 49},
		{"uncovered", 0, 3, 80},
		{"h0", 1, 2, 37},
		{"h17", 3, 0, 63},
		{"t3_9", 0, 2, 44},
		{"c0042", 0, 6, 48},
		{"wide-key-with-a-much-longer-name-0123456789", 1, 6, 13},
	}
	for _, c := range cases {
		if got := partition(c.key, 4); got != c.p4 {
			t.Errorf("partition(%q, 4) = %d, pinned %d", c.key, got, c.p4)
		}
		if got := partition(c.key, 7); got != c.p7 {
			t.Errorf("partition(%q, 7) = %d, pinned %d", c.key, got, c.p7)
		}
		if got := partition(c.key, 112); got != c.p112 {
			t.Errorf("partition(%q, 112) = %d, pinned %d", c.key, got, c.p112)
		}
	}
}

// capMapper tracks how many map tasks are in flight between Setup and
// Cleanup, recording the peak.
type capMapper struct {
	inFlight, peak *atomic.Int64
}

func (m *capMapper) Setup(*TaskContext) error {
	cur := m.inFlight.Add(1)
	for {
		p := m.peak.Load()
		if cur <= p || m.peak.CompareAndSwap(p, cur) {
			return nil
		}
	}
}

func (m *capMapper) Map(ctx *TaskContext, global int, row []float64) error {
	time.Sleep(100 * time.Microsecond)
	return nil
}

func (m *capMapper) Cleanup(*TaskContext) error {
	m.inFlight.Add(-1)
	return nil
}

// TestParallelismCapSharedAcrossConcurrentRuns: Config.Parallelism is an
// engine-wide cap. Two jobs running concurrently on one engine must never
// have more tasks in flight than the cap — previously each Run opened its
// own semaphore and concurrent jobs could run 2× the configured tasks.
func TestParallelismCapSharedAcrossConcurrentRuns(t *testing.T) {
	const cap = 2
	engine := NewEngine(Config{Parallelism: cap})
	var inFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for j := 0; j < 2; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			job := funcJob(fmt.Sprintf("capped-%d", j), makeSplits(36, 12), JobFuncs{
				NewMapper: func() Mapper { return &capMapper{inFlight: &inFlight, peak: &peak} },
			})
			if _, err := engine.Run(job); err != nil {
				t.Error(err)
			}
		}(j)
	}
	wg.Wait()
	if p := peak.Load(); p > cap {
		t.Fatalf("peak in-flight map tasks = %d, engine-wide cap = %d", p, cap)
	}
	if p := peak.Load(); p < cap {
		t.Logf("peak in-flight = %d never reached cap %d (scheduling-dependent, not a failure)", p, cap)
	}
}

// TestShuffleDeterministicAcrossParallelism: with the split layout fixed,
// the engine's output — pair order, float accumulations, and counters —
// must be byte-identical at any Parallelism. This is the property the
// partitioned-buffer shuffle buys: per-task buffers merge in split order,
// so reducers always see the same value sequence regardless of task
// scheduling.
func TestShuffleDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) (string, string, Counters) {
		engine := NewEngine(Config{Parallelism: par, NumReducers: 5})
		var mu sync.Mutex
		lastKey := make(map[int]string)
		job := funcJob("determinism", makeSplits(5000, 16), JobFuncs{
			NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
				// Irrational-ish increments make float sums order-sensitive,
				// so any nondeterministic value order shows up in the bits.
				ctx.Emit(fmt.Sprintf("k%03d", global%97), row[0]*0.1+0.3)
				return nil
			}),
			TypedReducer: TypedReducerFunc(func(ctx *TaskContext, key string, values Values) error {
				mu.Lock()
				if prev, ok := lastKey[ctx.TaskID]; ok && key <= prev {
					mu.Unlock()
					return fmt.Errorf("reducer %d saw key %q after %q — reduce keys not sorted", ctx.TaskID, key, prev)
				}
				lastKey[ctx.TaskID] = key
				mu.Unlock()
				var s float64
				for i := 0; i < values.Len(); i++ {
					s += values.Value(i).(float64)
				}
				ctx.Emit(key, s)
				return nil
			}),
		})
		out, err := engine.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		raw := ""
		for _, p := range out.Pairs {
			raw += fmt.Sprintf("%s=%x;", p.Key, p.Value.(float64))
		}
		got := byKey(out)
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sorted := ""
		for _, k := range keys {
			sorted += fmt.Sprintf("%s=%x;", k, got[k].(float64))
		}
		return raw, sorted, out.Counters
	}

	baseRaw, baseSorted, baseCounters := run(1)
	for _, par := range []int{4, runtime.NumCPU()} {
		raw, sorted, counters := run(par)
		if sorted != baseSorted {
			t.Fatalf("parallelism %d: sorted output differs from parallelism 1", par)
		}
		if raw != baseRaw {
			t.Fatalf("parallelism %d: raw output order differs from parallelism 1", par)
		}
		if counters != baseCounters {
			t.Fatalf("parallelism %d: counters differ:\n%+v\n%+v", par, counters, baseCounters)
		}
	}
}

// TestMapOnlyOutputDeterministicOrder: map-only job output follows split
// order, not task completion order.
func TestMapOnlyOutputDeterministicOrder(t *testing.T) {
	engine := NewEngine(Config{Parallelism: 8})
	job := funcJob("maponly-order", makeSplits(200, 16), JobFuncs{
		NewMapper: mapFn(func(ctx *TaskContext, global int, row []float64) error {
			ctx.Emit("p", global)
			return nil
		}),
	})
	out, err := engine.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range out.Pairs {
		if p.Value.(int) != i {
			t.Fatalf("pair %d carries global index %d — map-only output not in split order", i, p.Value)
		}
	}
}
