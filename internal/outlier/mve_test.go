package outlier

import (
	"math"
	"math/rand"
	"testing"

	"p3cmr/internal/em"
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
)

func TestMVEMethodName(t *testing.T) {
	if MVE.String() != "mve" {
		t.Fatal("MVE name wrong")
	}
}

func TestMVEEstimateRecoversLocationUnderContamination(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d = 3
	const nGood, nBad = 300, 120 // 28% contamination
	points := make([]float64, 0, (nGood+nBad)*d)
	for i := 0; i < nGood; i++ {
		for j := 0; j < d; j++ {
			points = append(points, 0.5+rng.NormFloat64()*0.02)
		}
	}
	for i := 0; i < nBad; i++ {
		for j := 0; j < d; j++ {
			points = append(points, 0.95+rng.Float64()*0.05)
		}
	}
	mu, cov, err := mveEstimate(points, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The classical mean is dragged to ~0.64; the MVE must stay near 0.5.
	for j := 0; j < d; j++ {
		if math.Abs(mu[j]-0.5) > 0.02 {
			t.Errorf("MVE mean[%d] = %g, want ≈0.5", j, mu[j])
		}
	}
	// The scatter must reflect the clean core, not the contaminated spread.
	for j := 0; j < d; j++ {
		v := cov.At(j, j)
		if v > 0.005 {
			t.Errorf("MVE var[%d] = %g, inflated by outliers", j, v)
		}
		if v <= 0 {
			t.Errorf("MVE var[%d] = %g not positive", j, v)
		}
	}
}

func TestMVEEstimateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Too few points.
	if _, _, err := mveEstimate(make([]float64, 3*2), 2, rng); err == nil {
		t.Error("too-few-points accepted")
	}
	// Fully degenerate data (all identical): no non-degenerate subset.
	pts := make([]float64, 50*2)
	if _, _, err := mveEstimate(pts, 2, rng); err == nil {
		t.Error("degenerate data accepted")
	}
}

// TestMVEDetectBeatsNaiveUnderMasking mirrors the MVB masking test with the
// MVE estimator: under heavy contamination that corrupts the naive
// statistics, MVE must flag (nearly) all planted outliers.
func TestMVEDetectBeatsNaiveUnderMasking(t *testing.T) {
	splits, outStart := clusterWithOutliers(300, 90, 3, 2)
	n := 390
	all := make([]float64, 0, n*3)
	for _, s := range splits {
		all = append(all, s.Rows...)
	}
	mu := linalg.Mean(all, 3)
	cov := linalg.Covariance(all, 3, mu)
	model := &em.Model{Attrs: []int{0, 1, 2}, Components: []*em.Component{{Weight: 1, Mean: mu, Cov: cov}}}

	countFlagged := func(method Method) int {
		labels, _, err := Detect(mr.Default(), splits, model.Clone(), n, method, 0.001, 0)
		if err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for i := outStart; i < n; i++ {
			if labels[i] == OutlierLabel {
				flagged++
			}
		}
		return flagged
	}
	naive := countFlagged(Naive)
	mve := countFlagged(MVE)
	t.Logf("naive flagged %d/90, MVE flagged %d/90", naive, mve)
	if mve <= naive {
		t.Errorf("MVE (%d) must beat the masked naive detector (%d)", mve, naive)
	}
	if mve < 85 {
		t.Errorf("MVE flagged only %d/90", mve)
	}
}

// TestMVEKeepsCleanClusterMembers: on clean Gaussian data the MVE-based
// test at alpha=0.001 must not flag a large share of the cluster.
func TestMVEKeepsCleanClusterMembers(t *testing.T) {
	splits, _ := clusterWithOutliers(600, 0, 3, 11)
	model := singleComponentModel(3, []float64{0.5, 0.5, 0.5}, 4e-4)
	labels, _, err := Detect(mr.Default(), splits, model, 600, MVE, 0.001, 0)
	if err != nil {
		t.Fatal(err)
	}
	flagged := 0
	for _, l := range labels {
		if l == OutlierLabel {
			flagged++
		}
	}
	if flagged > 30 {
		t.Errorf("MVE flagged %d/600 clean points", flagged)
	}
}
