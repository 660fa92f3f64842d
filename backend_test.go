package p3cmr

import (
	"bytes"
	"fmt"
	"testing"

	"p3cmr/internal/dataset"
	"p3cmr/internal/mr"
)

// renderJSON runs the pipeline on data with the given engine, closes the
// engine (its accounting stays readable) and returns its WriteJSON output
// (members included).
func renderJSON(t *testing.T, data *Dataset, alg Algorithm, engine *mr.Engine) []byte {
	t.Helper()
	return renderConfigJSON(t, data, Config{Algorithm: alg}, engine)
}

// renderConfigJSON is renderJSON for a configuration, run on engine.
func renderConfigJSON(t *testing.T, data *Dataset, cfg Config, engine *mr.Engine) []byte {
	t.Helper()
	defer engine.Close()
	cfg.Engine = engine
	res, err := Run(data, cfg)
	if err != nil {
		t.Fatalf("%s on %s: %v", cfg.Algorithm, engine.BackendName(), err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, cfg.Algorithm, true); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBackendJSONResultBitIdentical extends the end-to-end JSON oracle
// across the Backend seam: the paper's pipelines — Light and the full
// model with MVB or MVE outlier detection — must write byte-for-byte the
// same WriteJSON output on every backend (in-process goroutines and
// re-exec'd worker processes with a disk-spilled shuffle), at parallelism
// 1 and 8, with and without seeded faults — which on the multiprocess
// backend SIGKILL real workers. One always-spill multiprocess row per
// algorithm pushes every map output through the sorted-run merge. A
// deep-lattice Light run at a small Tgen (deepLattice) adds the sharded
// join, standalone and carried by a proving job, whose shares then cross
// the worker pipes.
func TestBackendJSONResultBitIdentical(t *testing.T) {
	data, _ := genAPITestData(t, 2000, 6)
	data.Normalize()
	plan := mr.RateFaultPlan{MapRate: 0.3, ReduceRate: 0.3, Seed: 19}

	type pipeline struct {
		name string
		data *Dataset
		cfg  Config
	}
	var pipelines []pipeline
	for _, alg := range []Algorithm{P3CPlusMRLight, P3CPlusMR, P3CPlusMRMVE} {
		pipelines = append(pipelines, pipeline{alg.String(), data, Config{Algorithm: alg}})
	}
	deep, deepCfg := deepLattice(t)
	pipelines = append(pipelines, pipeline{"deep-lattice " + deepCfg.Algorithm.String(), deep, deepCfg})
	if raceDetectorEnabled {
		// Race runs keep Light's in-process rows; the MVB, MVE and
		// deep-lattice rows and every multiprocess row run in the non-race
		// suite (the engine-level conformance matrix covers the
		// multiprocess driver under race).
		pipelines = pipelines[:1]
	}
	for _, pl := range pipelines {
		baseline := renderConfigJSON(t, pl.data, pl.cfg, mr.NewEngine(mr.Config{Parallelism: 4}))
		type row struct {
			name string
			cfg  mr.Config
		}
		var rows []row
		for _, backend := range mr.BackendNames() {
			if backend == "multiprocess" && raceDetectorEnabled {
				continue
			}
			for _, par := range []int{1, 8} {
				for _, faulty := range []bool{false, true} {
					cfg := mr.Config{Backend: backend, Parallelism: par, SpillDir: t.TempDir()}
					name := fmt.Sprintf("%s/%s/par=%d", pl.name, backend, par)
					if faulty {
						cfg.Faults, cfg.MaxAttempts = plan, 12
						name += "/chaos"
					}
					rows = append(rows, row{name, cfg})
				}
			}
		}
		if !raceDetectorEnabled {
			rows = append(rows, row{fmt.Sprintf("%s/multiprocess/always-spill/chaos", pl.name), mr.Config{
				Backend: "multiprocess", Parallelism: 4, SpillDir: t.TempDir(), SpillThresholdBytes: 1,
				Faults: plan, MaxAttempts: 12,
			}})
		}
		for _, r := range rows {
			engine := mr.NewEngine(r.cfg)
			if got := renderConfigJSON(t, pl.data, pl.cfg, engine); !bytes.Equal(got, baseline) {
				t.Errorf("%s: JSON result differs from in-process fault-free baseline", r.name)
			}
			if r.cfg.Faults != nil && engine.TotalCounters().TaskRetries == 0 {
				t.Errorf("%s: no retries injected — oracle exercised nothing", r.name)
			}
		}
	}
}

// TestBackendBoWBitIdentical runs BoW, whose final assignment job is the
// one that runs on the caller's engine, on every backend with and without
// seeded faults: the labels and clusters in the WriteJSON output must equal
// the fault-free in-process run's.
func TestBackendBoWBitIdentical(t *testing.T) {
	data, _ := genAPITestData(t, 2000, 6)
	data.Normalize()
	plan := mr.RateFaultPlan{MapRate: 0.3, Seed: 23}
	for _, alg := range []Algorithm{BoWLight, BoWMVB} {
		baseline := renderJSON(t, data, alg, mr.NewEngine(mr.Config{Parallelism: 4}))
		for _, backend := range mr.BackendNames() {
			if backend == "multiprocess" && raceDetectorEnabled {
				continue
			}
			for _, faulty := range []bool{false, true} {
				cfg := mr.Config{Backend: backend, Parallelism: 4, SpillDir: t.TempDir()}
				name := fmt.Sprintf("%s/%s", alg, backend)
				if faulty {
					cfg.Faults, cfg.MaxAttempts = plan, 12
					name += "/chaos"
				}
				engine := mr.NewEngine(cfg)
				if got := renderJSON(t, data, alg, engine); !bytes.Equal(got, baseline) {
					t.Errorf("%s: JSON result differs from the fault-free in-process run", name)
				}
				if faulty && engine.TotalCounters().TaskRetries == 0 {
					t.Errorf("%s: no retries injected — oracle exercised nothing", name)
				}
			}
		}
	}
}

// TestDegenerateInputs pins the inputs that break naive projected
// clustering — a constant attribute, 500 identical rows, a single point,
// and far fewer points than dimensions (40 × 400) — on Light and MVB: every
// run must succeed, and the worker-process backend must write the same
// JSON as the in-process one. Race runs compare against an in-process
// engine running one task at a time with poisoned pools instead:
// race-instrumented worker fleets are too slow to spawn for every job of
// every input.
func TestDegenerateInputs(t *testing.T) {
	other, otherName := mr.Config{Backend: "multiprocess", Parallelism: 2}, "multiprocess"
	if raceDetectorEnabled {
		other, otherName = mr.Config{Parallelism: 1, DebugPoisonPools: true}, "sequential poisoned in-process"
	}
	base, _ := genAPITestData(t, 600, 8)
	constant := base.Clone()
	for i := 0; i < constant.N(); i++ {
		constant.Row(i)[2] = 0.5
	}
	identical := dataset.New(6)
	for i := 0; i < 500; i++ {
		identical.Append([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6})
	}
	single := dataset.New(5)
	single.Append([]float64{0.3, 0.1, 0.4, 0.1, 0.5})
	wide := dataset.New(400)
	for i := 0; i < 40; i++ {
		row := make([]float64, 400)
		for j := range row {
			row[j] = float64((i*31+j*17)%97) / 97
		}
		wide.Append(row)
	}
	inputs := []struct {
		name string
		data *Dataset
	}{
		{"constant-attribute", constant},
		{"identical-rows", identical},
		{"single-point", single},
		{"n<<d", wide},
	}
	for _, in := range inputs {
		in.data.Normalize()
		for _, alg := range []Algorithm{P3CPlusMRLight, P3CPlusMR} {
			want := renderJSON(t, in.data, alg, mr.NewEngine(mr.Config{Parallelism: 2}))
			cfg := other
			cfg.SpillDir = t.TempDir()
			if got := renderJSON(t, in.data, alg, mr.NewEngine(cfg)); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: %s JSON differs from in-process", in.name, alg, otherName)
			}
		}
	}
}
