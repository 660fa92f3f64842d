package em

import (
	"fmt"
	"math"
	"os"
	"testing"

	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

// TestMain lets this test binary serve as a multiprocess-backend worker
// when the cross-backend convergence test re-execs it.
func TestMain(m *testing.M) {
	mr.MaybeWorkerProcess()
	os.Exit(m.Run())
}

// convergenceKey identifies one metric observation: the point name and the
// EM iteration it was emitted for.
type convergenceKey struct {
	name string
	iter int
}

// fitAndCollect runs FitMR on a fresh copy of the blob problem under the
// given backend/parallelism and returns every metric point's value, keyed
// by (name, iteration), plus the iteration count.
func fitAndCollect(t *testing.T, backend string, par int) (map[convergenceKey]float64, int) {
	t.Helper()
	splits := twoBlobs(300, 5, [2]int{0, 3}, 9)
	model := initialModel([]int{0, 3}, [][]float64{{0.4, 0.4}, {0.6, 0.6}})
	tr := obs.NewMemTracer()
	cfg := mr.Config{Parallelism: par, Backend: backend, Tracer: tr}
	if backend == "multiprocess" {
		cfg.SpillDir = t.TempDir()
	}
	engine := mr.NewEngine(cfg)
	defer engine.Close()
	run := obs.NewSpanID()
	tr.Begin(obs.Start{ID: run, Kind: obs.KindRun, Name: "em-fit"})
	iters, err := FitMR(engine, splits, model, FitOptions{MaxIterations: 5, Tolerance: 1e-9, TraceParent: run})
	if err != nil {
		t.Fatalf("%s/par=%d: %v", backend, par, err)
	}
	tr.End(obs.End{ID: run, Kind: obs.KindRun, Name: "em-fit", Outcome: obs.OutcomeOK})
	out := make(map[convergenceKey]float64)
	for _, p := range tr.Points() {
		if p.Kind != obs.PointMetric {
			continue
		}
		k := convergenceKey{p.Name, p.Task}
		if _, dup := out[k]; dup {
			t.Errorf("%s/par=%d: duplicate metric point %v", backend, par, k)
		}
		out[k] = p.Value
	}
	return out, iters
}

// TestConvergencePointsBitIdenticalAcrossBackends is the determinism
// contract for algorithm-level telemetry: the per-iteration log-likelihood,
// responsibility entropy and active-cluster counts must be bit-for-bit
// identical across the inprocess and multiprocess backends at parallelism
// 1 and 8 — the job spec round-trips float64s exactly, and the reduce is a
// fixed-order fold, so there is no tolerance here.
func TestConvergencePointsBitIdenticalAcrossBackends(t *testing.T) {
	type config struct {
		backend string
		par     int
	}
	configs := []config{
		{"", 1}, {"", 8},
		{"multiprocess", 1}, {"multiprocess", 8},
	}
	ref, refIters := fitAndCollect(t, configs[0].backend, configs[0].par)
	if refIters == 0 {
		t.Fatal("reference run did zero iterations")
	}
	if len(ref) != 3*refIters {
		t.Fatalf("reference run emitted %d metric points, want 3 per iteration × %d", len(ref), refIters)
	}
	for it := 0; it < refIters; it++ {
		for _, name := range []string{"em_log_likelihood", "em_resp_entropy", "em_active_clusters"} {
			if _, ok := ref[convergenceKey{name, it}]; !ok {
				t.Errorf("reference run missing %s at iteration %d", name, it)
			}
		}
	}
	// Log-likelihood must be non-decreasing across iterations — the EM
	// guarantee, and the property the convergence table exists to show.
	for it := 1; it < refIters; it++ {
		prev := ref[convergenceKey{"em_log_likelihood", it - 1}]
		cur := ref[convergenceKey{"em_log_likelihood", it}]
		if cur < prev {
			t.Errorf("log-likelihood decreased at iteration %d: %g → %g", it, prev, cur)
		}
	}

	for _, c := range configs[1:] {
		got, iters := fitAndCollect(t, c.backend, c.par)
		label := fmt.Sprintf("%s/par=%d", c.backend, c.par)
		if c.backend == "" {
			label = fmt.Sprintf("inprocess/par=%d", c.par)
		}
		if iters != refIters {
			t.Errorf("%s: %d iterations, reference did %d", label, iters, refIters)
		}
		if len(got) != len(ref) {
			t.Errorf("%s: %d metric points, reference has %d", label, len(got), len(ref))
		}
		for k, want := range ref {
			v, ok := got[k]
			if !ok {
				t.Errorf("%s: missing metric point %v", label, k)
				continue
			}
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Errorf("%s: %s@%d = %x (%g), reference %x (%g) — not bit-identical",
					label, k.name, k.iter, math.Float64bits(v), v, math.Float64bits(want), want)
			}
		}
	}
}

// TestConvergenceMetricsInRegistry checks the /metrics side of the
// emission: the iteration counter and the latest-value gauges land in the
// engine's registry under the pinned p3c_em_* names.
func TestConvergenceMetricsInRegistry(t *testing.T) {
	splits := twoBlobs(200, 4, [2]int{0, 2}, 5)
	model := initialModel([]int{0, 2}, [][]float64{{0.4, 0.4}, {0.6, 0.6}})
	reg := obs.NewRegistry()
	engine := mr.NewEngine(mr.Config{Parallelism: 2, Metrics: reg})
	iters, err := FitMR(engine, splits, model, FitOptions{MaxIterations: 4, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	counters, gauges := snap.Counters, snap.Gauges
	if counters["p3c_em_iterations_total"] != int64(iters) {
		t.Errorf("p3c_em_iterations_total = %d, want %d", counters["p3c_em_iterations_total"], iters)
	}
	for _, name := range []string{"p3c_em_log_likelihood", "p3c_em_resp_entropy", "p3c_em_active_clusters"} {
		if _, ok := gauges[name]; !ok {
			t.Errorf("gauge %s not published", name)
		}
	}
	if ac := gauges["p3c_em_active_clusters"]; ac < 1 || ac > 2 {
		t.Errorf("p3c_em_active_clusters = %g, want within [1, 2]", ac)
	}
}
