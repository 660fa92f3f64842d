package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// --- Gamma family ---------------------------------------------------------------

func TestRegularizedGammaComplement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := 0.1 + rng.Float64()*20
		x := rng.Float64() * 40
		p := RegularizedGammaP(a, x)
		q := RegularizedGammaQ(a, x)
		return close(p+q, 1, 1e-10) && p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRegularizedGammaKnownValues(t *testing.T) {
	// P(1, x) = 1 − e^{−x}.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := RegularizedGammaP(1, x); !close(got, want, 1e-12) {
			t.Errorf("P(1,%g) = %g, want %g", x, got, want)
		}
	}
	// P(a,0) = 0, Q(a,0) = 1.
	if RegularizedGammaP(3, 0) != 0 || RegularizedGammaQ(3, 0) != 1 {
		t.Error("boundary values wrong")
	}
}

func TestRegularizedGammaMonotone(t *testing.T) {
	prev := -1.0
	for x := 0.0; x < 30; x += 0.5 {
		p := RegularizedGammaP(4, x)
		if p < prev-1e-12 {
			t.Fatalf("P(4,·) not monotone at %g", x)
		}
		prev = p
	}
}

func TestRegularizedGammaInvalid(t *testing.T) {
	if !math.IsNaN(RegularizedGammaP(-1, 2)) || !math.IsNaN(RegularizedGammaQ(0, 2)) {
		t.Error("invalid a must yield NaN")
	}
}

// --- Gaussian --------------------------------------------------------------------

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{1, 0.8413447461},
		{-3, 0.0013498980},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !close(got, c.want, 1e-9) {
			t.Errorf("NormalCDF(%g) = %.10f, want %.10f", c.z, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-6, 0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999999} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); !close(got, p, 1e-9*(1+1/p)) {
			t.Errorf("CDF(Quantile(%g)) = %g", p, got)
		}
	}
}

func TestNormalQuantilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%g) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

// --- Chi-square -------------------------------------------------------------------

func TestChiSquareCriticalKnownValues(t *testing.T) {
	// Standard table values.
	cases := []struct {
		alpha float64
		k     int
		want  float64
	}{
		{0.05, 1, 3.841},
		{0.05, 5, 11.070},
		{0.001, 10, 29.588},
		{0.01, 3, 11.345},
	}
	for _, c := range cases {
		got := ChiSquareCritical(c.alpha, c.k)
		if !close(got, c.want, 0.01) {
			t.Errorf("ChiSquareCritical(%g,%d) = %.3f, want %.3f", c.alpha, c.k, got, c.want)
		}
	}
}

func TestChiSquareCriticalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := 0.0005 + rng.Float64()*0.2
		k := 1 + rng.Intn(50)
		crit := ChiSquareCritical(alpha, k)
		return close(ChiSquareSF(crit, k), alpha, 1e-6*(1+1/alpha))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestChiSquareCDFBounds(t *testing.T) {
	if ChiSquareCDF(-1, 3) != 0 || ChiSquareSF(-1, 3) != 1 {
		t.Error("negative statistic boundary wrong")
	}
}

// --- Poisson ---------------------------------------------------------------------

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 10, 50} {
		sum := 0.0
		for k := 0; k < int(lambda)*4+40; k++ {
			sum += PoissonPMF(k, lambda)
		}
		if !close(sum, 1, 1e-9) {
			t.Errorf("PMF(λ=%g) sums to %g", lambda, sum)
		}
	}
}

func TestPoissonSFMatchesPMFSum(t *testing.T) {
	lambda := 7.5
	for _, k := range []int{0, 1, 5, 8, 15} {
		var direct float64
		for j := k; j < 200; j++ {
			direct += PoissonPMF(j, lambda)
		}
		if got := PoissonSF(k, lambda); !close(got, direct, 1e-9) {
			t.Errorf("SF(%d, %g) = %g, direct sum %g", k, lambda, got, direct)
		}
	}
}

func TestPoissonCDFSFComplement(t *testing.T) {
	lambda := 12.0
	for k := 0; k < 40; k++ {
		// P(X ≤ k) + P(X ≥ k+1) = 1.
		if !close(PoissonCDF(k, lambda)+PoissonSF(k+1, lambda), 1, 1e-9) {
			t.Fatalf("CDF/SF mismatch at k=%d", k)
		}
	}
}

func TestPoissonSigmas(t *testing.T) {
	if got := PoissonSigmas(110, 100); !close(got, 1, 1e-12) {
		t.Errorf("sigmas = %g, want 1", got)
	}
	if !math.IsInf(PoissonSigmas(5, 0), 1) {
		t.Error("positive observation at zero lambda must be +Inf sigmas")
	}
	if PoissonSigmas(0, 0) != 0 {
		t.Error("zero observation at zero lambda must be 0 sigmas")
	}
}

func TestSigmaThresholdKnownValues(t *testing.T) {
	// One-sided: alpha=0.01 → 2.326; alpha=0.001 → 3.090.
	if got := SigmaThreshold(0.01); !close(got, 2.3263, 1e-3) {
		t.Errorf("SigmaThreshold(0.01) = %g", got)
	}
	if got := SigmaThreshold(0.001); !close(got, 3.0902, 1e-3) {
		t.Errorf("SigmaThreshold(0.001) = %g", got)
	}
}

func TestSigmaThresholdUltraSmallAlpha(t *testing.T) {
	// The paper's Figure 5 sweeps thresholds down to 1e-140, far beyond
	// floating-point CDF resolution; the sigma mapping must stay monotone
	// and finite there.
	prev := 0.0
	for _, alpha := range []float64{1e-3, 1e-5, 1e-20, 1e-40, 1e-60, 1e-80, 1e-100, 1e-140, 1e-200, 1e-308} {
		z := SigmaThreshold(alpha)
		if math.IsInf(z, 0) || math.IsNaN(z) {
			t.Fatalf("SigmaThreshold(%g) not finite: %g", alpha, z)
		}
		if z <= prev {
			t.Fatalf("SigmaThreshold not increasing at %g: %g <= %g", alpha, z, prev)
		}
		prev = z
	}
	// Consistency with the exact quantile where both are computable.
	if got, want := SigmaThreshold(1e-12), NormalQuantile(1-1e-12); !close(got, want, 1e-6) {
		t.Errorf("SigmaThreshold(1e-12) = %g, want %g", got, want)
	}
}

func TestPoissonTestAgainstExact(t *testing.T) {
	// The sigma-approximated test must agree with the exact tail test for
	// moderate lambdas away from the decision boundary.
	cases := []struct {
		obs      int
		lambda   float64
		alpha    float64
		expected bool
	}{
		{200, 100, 0.01, true},   // 10 sigmas: clearly significant
		{101, 100, 0.01, false},  // 0.1 sigmas: clearly not
		{500, 100, 1e-50, true},  // huge deviation at tiny alpha
		{120, 100, 1e-50, false}, // 2 sigmas at tiny alpha
	}
	for _, c := range cases {
		if got := PoissonTest(float64(c.obs), c.lambda, c.alpha); got != c.expected {
			t.Errorf("PoissonTest(%d,%g,%g) = %v", c.obs, c.lambda, c.alpha, got)
		}
	}
	if !PoissonTestExact(200, 100, 0.01) || PoissonTestExact(101, 100, 0.01) {
		t.Error("exact test disagrees on clear-cut cases")
	}
}

// TestPoissonTesterMatchesPerCallThreshold: a tester built once for alpha
// gives the verdict of the test that recomputes SigmaThreshold(alpha) per
// call, on both branches, at moderate and tiny alphas, across the boundary
// between the exact tail and the sigma test, and at the threshold itself.
func TestPoissonTesterMatchesPerCallThreshold(t *testing.T) {
	perCall := func(observed, expected, alpha float64) bool {
		if expected <= smallLambda {
			return PoissonSF(int(math.Ceil(observed)), math.Max(expected, 0)) < alpha
		}
		return PoissonSigmas(observed, expected) > SigmaThreshold(alpha)
	}
	for _, alpha := range []float64{0.5, 0.01, 1e-5, 1e-12, 1e-13, 1e-50, 1e-140} {
		tester := NewPoissonTester(alpha)
		z := SigmaThreshold(alpha)
		for _, expected := range []float64{-1, 0, 0.05, 2, 24.5, 25, 25.5, 100, 1e4, 1e8} {
			observed := []float64{0, 1, 2.5, expected, expected + 1, expected + z*math.Sqrt(math.Max(expected, 0)), 2*expected + 40}
			for _, obs := range observed {
				if got, want := tester.Test(obs, expected), perCall(obs, expected, alpha); got != want {
					t.Errorf("alpha=%g: Test(%g, %g) = %v, per-call threshold %v", alpha, obs, expected, got, want)
				}
			}
		}
	}
}

// TestPoissonTestPowerGrowsWithN reproduces the Figure 1 phenomenon: at a
// constant relative deviation of 1%, the test flips from "not significant"
// to "significant" as the expected count grows.
func TestPoissonTestPowerGrowsWithN(t *testing.T) {
	const alpha = 0.01
	small := PoissonTest(101, 100, alpha)       // 1% over µ=100
	large := PoissonTest(101000000, 1e8, alpha) // 1% over µ=1e8
	if small {
		t.Error("1% deviation at µ=100 should not be significant")
	}
	if !large {
		t.Error("1% deviation at µ=1e8 must be significant — the paper's core statistical argument")
	}
}
