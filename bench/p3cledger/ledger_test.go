package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"p3cmr/internal/mr"
)

// TestMain lets the test binary stand in for the bench binary: reps and
// multiprocess workers re-exec the running executable.
func TestMain(m *testing.M) {
	mr.MaybeWorkerProcess()
	maybeRep()
	os.Exit(m.Run())
}

const benchmarkFile = "../../BENCHMARK.json"

// small shrinks each workload for the test. subspace-50d needs more points
// than the others: below ~10k its hidden subspaces blur, the a-priori
// lattice grows, and its E4SC drops under the floor. Its reps take ~2 s, so
// it runs one timed rep; the traced rep still checks the digest against it.
var small = map[string]struct{ n, reps int }{
	"light-1m": {3000, 2}, "mvb-200k": {3000, 2}, "subspace-50d": {10000, 1}, "em-multiprocess": {3000, 2},
}

func TestLedgerSmallWorkloads(t *testing.T) {
	var spec benchSpec
	if err := readJSON(benchmarkFile, &spec); err != nil {
		t.Fatal(err)
	}
	// Only the bench process generates data, so shrinking the workload
	// table here shrinks every rep; the reps read the data file.
	saved := append([]workload(nil), workloads...)
	t.Cleanup(func() { copy(workloads, saved) })
	for i := range workloads {
		workloads[i].gen.N = small[workloads[i].name].n
	}
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := filepath.Join(dir, w.name+".json")
			var stdout bytes.Buffer
			size := small[w.name]
			args := []string{"-workload", w.name, "-reps", strconv.Itoa(size.reps),
				"-trace", "1", "-out", out, "-benchmark", benchmarkFile}
			if code := run(args, &stdout); code != 0 {
				t.Fatalf("exit %d:\n%s", code, stdout.String())
			}
			var led ledger
			if err := readJSON(out, &led); err != nil {
				t.Fatal(err)
			}
			wl := led.Workloads[w.name]
			if !wl.Correct || wl.Failed != 0 {
				t.Fatalf("checks failed: %v", wl.Problems)
			}
			for _, m := range spec.EndToEnd {
				// Bounds are shares of the median, so no end-to-end metric may read 0.
				if s, ok := wl.EndToEnd[m.Name]; !ok || s.Unit != m.Unit || s.N != size.reps || s.Median == 0 {
					t.Errorf("end-to-end %s: %+v, want a nonzero median in %s over %d reps", m.Name, s, m.Unit, size.reps)
				}
			}
			for _, m := range spec.PerLayer {
				if s, ok := wl.PerLayer[m.Name]; !ok || s.Unit != m.Unit {
					t.Errorf("per-layer %s: %+v, want unit %s", m.Name, s, m.Unit)
				}
			}

			// The result line carries every per-layer metric with its unit.
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var result struct {
				Correct   bool
				Attempted int
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if !result.Correct || result.Attempted != wl.Attempted || len(result.Metrics) != len(spec.PerLayer) {
				t.Errorf("result line %+v", result)
			}
			for _, m := range spec.PerLayer {
				if v, ok := result.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("result line lacks %s in %s", m.Name, m.Unit)
				}
			}

			// The phases and the dark time account for the traced call.
			if !w.em {
				sum := wl.PerLayer["core.dark_s"].Median
				for _, p := range phaseNames {
					sum += wl.PerLayer["core.phase."+p+".wall_s"].Median
				}
				if math.Abs(sum-wl.TracedWallS) > 0.01*wl.TracedWallS {
					t.Errorf("phases + dark = %.4f s, traced wall %.4f s", sum, wl.TracedWallS)
				}
			}

			var cmp bytes.Buffer
			if code := run([]string{"-benchmark", benchmarkFile, "-compare", out, out}, &cmp); code != 0 || strings.Contains(cmp.String(), "worse") {
				t.Errorf("self-compare exit %d:\n%s", code, cmp.String())
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "e4sc", Better: "higher", Bound: 0.005}
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, []float64{10, 10, 10}, []float64{10.5, 10.5, 10.5}, "unchanged"},
		{lower, []float64{10, 10, 10}, []float64{11.5, 11.5, 11.5}, "worse"},
		{lower, []float64{10, 10, 10}, []float64{8, 8, 8}, "better"},
		{lower, []float64{8, 10, 12}, []float64{9, 10, 13}, "unresolved"},
		{lower, []float64{8, 10, 12}, []float64{5, 6, 7}, "better"},
		{higher, []float64{0.95, 0.95}, []float64{0.9, 0.9}, "worse"},
		{higher, []float64{0.95, 0.95}, []float64{0.951, 0.951}, "unchanged"},
	} {
		if got := verdict(c.m, summarize("", c.a), summarize("", c.b)); got != c.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}
