package bow

import (
	"testing"

	"p3cmr/internal/dataset"
	"p3cmr/internal/eval"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/signature"
)

func iv(attr int, lo, hi float64) signature.Interval {
	return signature.Interval{Attr: attr, Lo: lo, Hi: hi}
}

func TestMergeRectanglesSameSubspace(t *testing.T) {
	a := signature.New(iv(0, 0.1, 0.3), iv(1, 0.5, 0.7))
	b := signature.New(iv(0, 0.25, 0.4), iv(1, 0.6, 0.8))
	merged := MergeRectangles([]signature.Signature{a, b})
	if len(merged) != 1 {
		t.Fatalf("merged %d, want 1", len(merged))
	}
	m := merged[0]
	got0, _ := m.IntervalOn(0)
	got1, _ := m.IntervalOn(1)
	if got0.Lo != 0.1 || got0.Hi != 0.4 || got1.Lo != 0.5 || got1.Hi != 0.8 {
		t.Fatalf("merged intervals wrong: %v", m)
	}
}

func TestMergeRectanglesDisjointOrDifferentSubspace(t *testing.T) {
	a := signature.New(iv(0, 0.1, 0.2))
	b := signature.New(iv(0, 0.5, 0.6))              // same subspace, disjoint
	c := signature.New(iv(1, 0.1, 0.2))              // different subspace
	d := signature.New(iv(0, 0.1, 0.2), iv(1, 0, 1)) // different dimensionality
	merged := MergeRectangles([]signature.Signature{a, b, c, d})
	if len(merged) != 4 {
		t.Fatalf("merged %d, want 4 (nothing mergeable)", len(merged))
	}
}

func TestMergeRectanglesTransitiveChain(t *testing.T) {
	// a∩b and b∩c but not a∩c: the fixpoint must unite all three.
	a := signature.New(iv(0, 0.0, 0.2))
	b := signature.New(iv(0, 0.15, 0.45))
	c := signature.New(iv(0, 0.4, 0.6))
	merged := MergeRectangles([]signature.Signature{a, c, b})
	if len(merged) != 1 {
		t.Fatalf("merged %d, want 1", len(merged))
	}
	m, _ := merged[0].IntervalOn(0)
	if m.Lo != 0 || m.Hi != 0.6 {
		t.Fatalf("chain merge = %v", m)
	}
}

func TestBoWFindsPlantedClusters(t *testing.T) {
	data, truth, err := dataset.Generate(dataset.GenConfig{
		N: 6000, Dim: 15, Clusters: 3, NoiseFraction: 0.1, Seed: 19, Overlap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := NewLightParams()
	params.SamplesPerReducer = 2000 // three blocks
	res, err := Run(mr.Default(), data, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Blocks != 3 {
		t.Errorf("blocks = %d, want 3", res.Stats.Blocks)
	}
	if res.Stats.RawSignatures < res.Stats.MergedSignatures {
		t.Error("merging increased the signature count")
	}
	var cs []*eval.Cluster
	for _, tc := range truth.Clusters {
		cs = append(cs, &eval.Cluster{Objects: tc.Members, Attrs: tc.Attrs})
	}
	tc, err := eval.NewSubspaceClustering(truth.N, truth.Dim, cs)
	if err != nil {
		t.Fatal(err)
	}
	found, err := eval.NewSubspaceClustering(data.N(), data.Dim, res.Clusters)
	if err != nil {
		t.Fatal(err)
	}
	e4sc := eval.E4SC(found, tc)
	t.Logf("BoW blocks=%d raw=%d merged=%d E4SC=%.3f",
		res.Stats.Blocks, res.Stats.RawSignatures, res.Stats.MergedSignatures, e4sc)
	if e4sc < 0.5 {
		t.Errorf("BoW E4SC = %.3f too low", e4sc)
	}
	if len(res.Labels) != data.N() {
		t.Error("labels length wrong")
	}
}

func TestBoWSingleBlockMatchesPluginQuality(t *testing.T) {
	// With one block, BoW is just the plug-in on the full data (modulo the
	// random shuffle), so it must find the exact cluster count.
	data, _, err := dataset.Generate(dataset.GenConfig{
		N: 3000, Dim: 12, Clusters: 3, NoiseFraction: 0.05, Seed: 23, Overlap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := NewLightParams()
	params.SamplesPerReducer = 10000
	res, err := Run(mr.Default(), data, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Blocks != 1 {
		t.Fatalf("blocks = %d", res.Stats.Blocks)
	}
	if len(res.Signatures) != 3 {
		t.Errorf("signatures = %d, want 3", len(res.Signatures))
	}
}

func TestBoWValidation(t *testing.T) {
	data := dataset.New(2)
	if _, err := Run(mr.Default(), data, Params{SamplesPerReducer: 0}); err == nil {
		t.Fatal("zero block size accepted")
	}
	// Empty data set: trivially empty result.
	params := NewLightParams()
	params.SamplesPerReducer = 100
	res, err := Run(mr.Default(), data, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 0 {
		t.Fatal("empty data produced clusters")
	}
}

// TestBoWAssignEmitsOncePerSplit pins the final assignment's per-split
// emission: bow-assign emits each split's member bitmaps once, not one
// record per point, and every point gets the lowest rectangle holding it.
func TestBoWAssignEmitsOncePerSplit(t *testing.T) {
	data, _, err := dataset.Generate(dataset.GenConfig{
		N: 3000, Dim: 12, Clusters: 3, NoiseFraction: 0.05, Seed: 23, Overlap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := NewLightParams()
	params.SamplesPerReducer = 1000
	trace := obs.NewForest()
	res, err := Run(mr.NewEngine(mr.Config{Tracer: trace}), data, params)
	if err != nil {
		t.Fatal(err)
	}
	// Without a pipeline run span each job is a root of the trace.
	runs, out := 0, int64(0)
	for _, r := range trace.Analyze(0).Runs {
		for _, j := range r.Jobs {
			if j.Name == "bow-assign" {
				runs += j.Runs
				out += j.Counters.MapOutputRecords
			}
		}
	}
	if runs != 1 || out != 16 {
		t.Fatalf("%d runs, %d map output records; want 1 run, one record per split (16)", runs, out)
	}
	for i, l := range res.Labels {
		want := -1
		for c, sig := range res.Signatures {
			if sig.Contains(data.Row(i)) {
				want = c
				break
			}
		}
		if l != want {
			t.Fatalf("point %d: label %d, lowest rectangle holding it %d", i, l, want)
		}
	}
}
