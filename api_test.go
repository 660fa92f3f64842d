package p3cmr

import (
	"testing"

	"p3cmr/internal/bow"
	"p3cmr/internal/core"
	"p3cmr/internal/doc"
	"p3cmr/internal/mr"
	"p3cmr/internal/outlier"
	"p3cmr/internal/proclus"
)

func genAPITestData(t *testing.T, n int, seed int64) (*Dataset, *GroundTruth) {
	t.Helper()
	data, truth, err := GenerateSynthetic(SyntheticConfig{
		N: n, Dim: 15, Clusters: 3, NoiseFraction: 0.1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data, truth
}

func TestAlgorithmNames(t *testing.T) {
	names := map[Algorithm]string{
		P3C:            "P3C",
		P3CPlus:        "P3C+",
		P3CPlusMR:      "MR (MVB)",
		P3CPlusMRNaive: "MR (Naive)",
		P3CPlusMRLight: "MR (Light)",
		BoWLight:       "BoW (Light)",
		BoWMVB:         "BoW (MVB)",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm must still render")
	}
}

// TestDefaultConfig pins the variant table: each P3C-family variant
// carries core Params and each BoW variant BoW params, with the preset
// differences the paper's variants are defined by, and a returned Config
// is the caller's to edit.
func TestDefaultConfig(t *testing.T) {
	mvb := core.NewParams()
	single := mvb
	single.NumSplits = 1
	naive := mvb
	naive.OutlierMethod = outlier.Naive
	mve := mvb
	mve.OutlierMethod = outlier.MVE
	cores := map[Algorithm]core.Params{
		P3C:            core.OriginalP3CParams(),
		P3CPlus:        single,
		P3CPlusMR:      mvb,
		P3CPlusMRNaive: naive,
		P3CPlusMRLight: core.LightParams(),
		P3CPlusMRMVE:   mve,
	}
	bows := map[Algorithm]bow.Params{BoWLight: bow.NewLightParams(), BoWMVB: bow.NewMVBParams()}
	for a := P3C; a <= DOC; a++ {
		cfg := DefaultConfig(a)
		if cfg.Algorithm != a {
			t.Errorf("%v: Algorithm = %v", a, cfg.Algorithm)
		}
		if want, ok := cores[a]; ok {
			if cfg.Params == nil || *cfg.Params != want || cfg.BoW != nil {
				t.Errorf("%v: Params = %+v, BoW = %v; want %+v and no BoW", a, cfg.Params, cfg.BoW, want)
			}
		} else if want, ok := bows[a]; ok {
			if cfg.BoW == nil || *cfg.BoW != want || cfg.Params != nil {
				t.Errorf("%v: BoW = %+v, Params = %v; want %+v and no Params", a, cfg.BoW, cfg.Params, want)
			}
		} else if cfg.Params != nil || cfg.BoW != nil {
			t.Errorf("%v has a preset; it needs its parameters from the caller", a)
		}
	}
	edited := DefaultConfig(P3CPlusMR)
	edited.Params.ThetaCC = 0.9
	if DefaultConfig(P3CPlusMR).Params.ThetaCC == 0.9 {
		t.Error("editing a returned Config changed the table")
	}
}

// TestRunAllAlgorithms drives every variant through the public API on one
// data set and sanity-checks the unified result.
func TestRunAllAlgorithms(t *testing.T) {
	data, truth := genAPITestData(t, 4000, 2)
	for _, algo := range []Algorithm{P3C, P3CPlus, P3CPlusMR, P3CPlusMRNaive, P3CPlusMRLight, BoWLight, BoWMVB} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			cfg := DefaultConfig(algo)
			if cfg.BoW != nil {
				cfg.BoW.SamplesPerReducer = 1500
			}
			res, err := Run(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Labels) != data.N() {
				t.Fatalf("labels = %d", len(res.Labels))
			}
			if len(res.Clusters) != len(res.Signatures) {
				t.Fatalf("%d clusters vs %d signatures", len(res.Clusters), len(res.Signatures))
			}
			e4sc := E4SCAgainstTruth(res, data, truth)
			t.Logf("clusters=%d jobs=%d E4SC=%.3f", len(res.Clusters), res.Jobs, e4sc)
			if algo != P3C && e4sc < 0.4 {
				t.Errorf("E4SC = %.3f unexpectedly low", e4sc)
			}
		})
	}
}

func TestRunWithCustomParams(t *testing.T) {
	data, _ := genAPITestData(t, 2000, 5)
	params := core.LightParams()
	params.ThetaCC = 0.5
	params.NumSplits = 4
	res, err := Run(data, Config{Algorithm: P3CPlusMRLight, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	if res.Core == nil || res.BoW != nil {
		t.Fatal("core result routing wrong")
	}
}

func TestRunWithCustomEngine(t *testing.T) {
	data, _ := genAPITestData(t, 2000, 6)
	engine := mr.NewEngine(mr.Config{Parallelism: 2, NumReducers: 8, Cost: mr.DefaultCostModel()})
	res, err := Run(data, Config{Algorithm: P3CPlusMRLight, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedSeconds <= 0 {
		t.Error("cost model not applied through custom engine")
	}
	if engine.JobsRun() != res.Jobs {
		t.Errorf("engine jobs %d != result jobs %d", engine.JobsRun(), res.Jobs)
	}
}

func TestSimulateClusterFlag(t *testing.T) {
	data, _ := genAPITestData(t, 1500, 7)
	res, err := Run(data, Config{Algorithm: P3CPlusMRLight, SimulateCluster: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedSeconds <= 0 {
		t.Error("SimulateCluster did not enable the cost model")
	}
	res2, err := Run(data, Config{Algorithm: P3CPlusMRLight})
	if err != nil {
		t.Fatal(err)
	}
	if res2.SimulatedSeconds != 0 {
		t.Error("cost model enabled without the flag")
	}
}

func TestEvaluationHelpers(t *testing.T) {
	data, truth := genAPITestData(t, 2000, 8)
	res, err := Run(data, Config{Algorithm: P3CPlusMRLight})
	if err != nil {
		t.Fatal(err)
	}
	found, err := FoundClustering(res, data)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := TruthClustering(truth)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"E4SC": E4SC(found, tc),
		"F1":   F1(found, tc),
		"RNIA": RNIA(found, tc),
		"CE":   CE(found, tc),
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s = %g out of range", name, v)
		}
	}
	// Self-comparison of the truth is perfect.
	if E4SC(tc, tc) != 1 {
		t.Error("truth vs itself must be 1")
	}
	if Accuracy([]int{0, 0}, []int{1, 1}) != 1 {
		t.Error("accuracy re-export broken")
	}
}

func TestPROCLUSAndDOCThroughAPI(t *testing.T) {
	data, truth := genAPITestData(t, 3000, 17)
	tc, err := TruthClustering(truth)
	if err != nil {
		t.Fatal(err)
	}
	// PROCLUS gets the true k and a plausible l.
	pp := proclus.Params{K: 3, L: 4, Seed: 1}
	res, err := Run(data, Config{Algorithm: PROCLUS, PROCLUS: &pp})
	if err != nil {
		t.Fatal(err)
	}
	found, err := FoundClustering(res, data)
	if err != nil {
		t.Fatal(err)
	}
	if f1 := F1(found, tc); f1 < 0.4 {
		t.Errorf("PROCLUS F1 = %.3f", f1)
	}
	// DOC.
	dp := doc.Params{K: 3, W: 0.25, Seed: 1}
	res, err = Run(data, Config{Algorithm: DOC, DOC: &dp})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Error("DOC found nothing")
	}
	// Missing configs are rejected.
	if _, err := Run(data, Config{Algorithm: PROCLUS}); err == nil {
		t.Error("PROCLUS without params accepted")
	}
	if _, err := Run(data, Config{Algorithm: DOC}); err == nil {
		t.Error("DOC without params accepted")
	}
	if PROCLUS.String() != "PROCLUS" || DOC.String() != "DOC" || P3CPlusMRMVE.String() != "MR (MVE)" {
		t.Error("algorithm names wrong")
	}
}

func TestGenerateSyntheticForcesOverlap(t *testing.T) {
	// The public generator always enables Overlap, matching §7.1.
	_, truth, err := GenerateSynthetic(SyntheticConfig{N: 500, Dim: 20, Clusters: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := truth.Clusters[0], truth.Clusters[1]
	shared := false
	for i, aa := range a.Attrs {
		for j, ba := range b.Attrs {
			if aa == ba && a.Lo[i] <= b.Hi[j] && b.Lo[j] <= a.Hi[i] {
				shared = true
			}
		}
	}
	if !shared {
		t.Error("no forced overlap")
	}
}
