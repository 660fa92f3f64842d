package signature

import (
	"math"
	"math/rand"
	"testing"
)

// TestRedundancyPaperExample reconstructs Figure 2 / §4.2.1: two hidden
// clusters C1 ({a1,a3}) and C2 ({a1,a2}) of 50 points each produce three
// 2-signatures; S3 (the {a2,a3} intersection artifact) must be identified
// as redundant to S1 and S2.
func TestRedundancyPaperExample(t *testing.T) {
	const n = 100
	rng := rand.New(rand.NewSource(1))
	// Intervals of width 0.1 as in the example.
	i1 := iv(0, 0.45, 0.55) // I1 on a1 (shared by both clusters)
	i2 := iv(1, 0.2, 0.3)   // I2 on a2 (C2's)
	i3 := iv(2, 0.7, 0.8)   // I3 on a3 (C1's)
	s1 := New(i1, i3)
	s2 := New(i1, i2)
	s3 := New(i2, i3)

	// Generate the example's data: C1 uniform in I1×I3, uniform on a2; C2
	// uniform in I1×I2, uniform on a3.
	rows := make([]float64, 0, n*3)
	unif := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	for i := 0; i < 50; i++ {
		rows = append(rows, unif(0.45, 0.55), rng.Float64(), unif(0.7, 0.8))
	}
	for i := 0; i < 50; i++ {
		rows = append(rows, unif(0.45, 0.55), unif(0.2, 0.3), rng.Float64())
	}

	sigs := []Signature{s1, s2, s3}
	supports := CountSupportsNaive(sigs, rows, 3)
	// Each cluster's own signature holds all 50 members plus whatever the
	// other cluster leaks in on its uniform attribute (~50·0.1).
	if supports[0] < 50 || supports[1] < 50 {
		t.Fatalf("cluster supports = %v", supports)
	}
	// The artifact's support is roughly 50·0.1 + 50·0.1 = 10 (§4.2.1).
	if supports[2] < 3 || supports[2] > 25 {
		t.Fatalf("artifact support = %d, want ≈10", supports[2])
	}

	ratios := make([]float64, 3)
	for i, s := range sigs {
		ratios[i] = InterestRatio(float64(supports[i]), s, n)
	}
	// Paper: S3 <r S1 and S3 <r S2.
	if !(ratios[2] < ratios[0] && ratios[2] < ratios[1]) {
		t.Fatalf("ratio ordering wrong: %v", ratios)
	}

	unc := countVertically(NewCoverageIndex(sigs, ratios), rows, 3)
	red := DecideRedundant(supports, unc, 1.0)
	if !red[2] {
		t.Errorf("S3 must be redundant (uncovered=%d)", unc[2])
	}
	if red[0] || red[1] {
		t.Errorf("S1/S2 must not be redundant (uncovered=%v)", unc)
	}
}

func TestInterestRatio(t *testing.T) {
	s := New(iv(0, 0, 0.1), iv(1, 0, 0.1))
	// Eq. 6/7: ratio = supp / (n·vol) = 50 / (100·0.01) = 50.
	if got := InterestRatio(50, s, 100); math.Abs(got-50) > 1e-9 {
		t.Errorf("ratio = %g, want 50", got)
	}
	if got := InterestRatio(5, Signature{}, 0); !math.IsInf(got, 1) {
		t.Errorf("zero expectation with support must be +Inf, got %g", got)
	}
	if got := InterestRatio(0, Signature{}, 0); got != 0 {
		t.Errorf("zero/zero = %g", got)
	}
}

func TestCoverageByUnrelatedHigherRatio(t *testing.T) {
	a := New(iv(0, 0, 0.5))
	b := New(iv(1, 0, 0.5)) // different subspace, higher ratio
	sigs := []Signature{a, b}
	ratios := []float64{2, 10}
	ix := NewCoverageIndex(sigs, ratios)
	rows := []float64{
		0.25, 0.25, // in both
		0.25, 0.75, // only in a
	}
	if unc := countVertically(ix, rows[:2], 2); unc[0] != 0 {
		t.Errorf("a must be covered by b: counts=%v", unc)
	}
	if unc := countVertically(ix, rows, 2); unc[0] != 1 {
		t.Errorf("a alone must be uncovered: counts=%v", unc)
	}
}

func TestDecideRedundantCoverageFraction(t *testing.T) {
	// 40 uncovered of 100: redundant at coverage 0.5 (allowed 50), not at
	// coverage 0.7 (allowed 30).
	if got := DecideRedundant([]int64{100}, []int64{40}, 0.5); !got[0] {
		t.Error("40/100 uncovered must be redundant at coverage 0.5")
	}
	if got := DecideRedundant([]int64{100}, []int64{40}, 0.7); got[0] {
		t.Error("40/100 uncovered must survive at coverage 0.7")
	}
	// Zero support is always redundant.
	if got := DecideRedundant([]int64{0}, []int64{0}, 0.5); !got[0] {
		t.Error("zero-support signature must be redundant")
	}
}
