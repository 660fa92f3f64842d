package stats

import "math"

// --- Gaussian ---------------------------------------------------------------

// NormalCDF returns P(Z ≤ z) for the standard normal distribution.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the z with P(Z ≤ z) = p, using the
// Acklam rational approximation refined by one Halley step. It panics for
// p outside (0,1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		panic("stats: NormalQuantile requires p in (0,1)")
	}
	// Coefficients of Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// --- Chi-square --------------------------------------------------------------

// ChiSquareCDF returns P(X ≤ x) for a chi-square variable with k degrees of
// freedom.
func ChiSquareCDF(x float64, k int) float64 {
	if x <= 0 {
		return 0
	}
	return RegularizedGammaP(float64(k)/2, x/2)
}

// ChiSquareSF returns the upper tail P(X > x).
func ChiSquareSF(x float64, k int) float64 {
	if x <= 0 {
		return 1
	}
	return RegularizedGammaQ(float64(k)/2, x/2)
}

// ChiSquareCritical returns the critical value x with P(X > x) = alpha for
// k degrees of freedom — the threshold used by the Mahalanobis outlier test
// in P3C (§3.2.2, §4.2.2). It is solved by bisection on the monotone CDF.
func ChiSquareCritical(alpha float64, k int) float64 {
	if alpha <= 0 || alpha >= 1 {
		panic("stats: ChiSquareCritical requires alpha in (0,1)")
	}
	if k <= 0 {
		panic("stats: ChiSquareCritical requires k > 0")
	}
	target := 1 - alpha
	lo, hi := 0.0, float64(k)+10
	for ChiSquareCDF(hi, k) < target {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if ChiSquareCDF(mid, k) < target {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2
}

// --- Poisson -----------------------------------------------------------------

// PoissonPMF returns P(X = k) for X ~ Poisson(lambda), computed in log space
// to stay finite for large arguments.
func PoissonPMF(k int, lambda float64) float64 {
	if k < 0 || lambda < 0 {
		return 0
	}
	if lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	logP := float64(k)*math.Log(lambda) - lambda - LogGamma(float64(k)+1)
	return math.Exp(logP)
}

// PoissonSF returns the exact upper tail P(X ≥ k) for X ~ Poisson(lambda),
// via the identity P(X ≥ k) = P(k, lambda) (regularized lower incomplete
// gamma). For k = 0 the result is 1.
func PoissonSF(k int, lambda float64) float64 {
	if k <= 0 {
		return 1
	}
	if lambda <= 0 {
		return 0
	}
	return RegularizedGammaP(float64(k), lambda)
}

// PoissonCDF returns P(X ≤ k).
func PoissonCDF(k int, lambda float64) float64 {
	if k < 0 {
		return 0
	}
	if lambda <= 0 {
		return 1
	}
	return RegularizedGammaQ(float64(k)+1, lambda)
}

// PoissonSigmas returns the deviation of the observed count from lambda in
// units of the Poisson standard deviation sqrt(lambda). The paper (§7.4.2
// side remark) works in sigma units because p-values below ~1e-10 are not
// representable reliably in floating point: the Poisson is approximated by
// N(µ=λ, σ=√λ) and both the observed statistic and the significance
// threshold are mapped to sigma counts for comparison.
func PoissonSigmas(observed, lambda float64) float64 {
	if lambda <= 0 {
		if observed > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return (observed - lambda) / math.Sqrt(lambda)
}

// SigmaThreshold converts a one-sided significance level alpha into the
// corresponding number of Gaussian standard deviations. E.g. alpha = 1e-2
// maps to ≈2.326 sigmas; alpha = 1e-140 is perfectly representable where the
// p-value itself is not.
func SigmaThreshold(alpha float64) float64 {
	if alpha <= 0 {
		return math.Inf(1)
	}
	if alpha >= 1 {
		return math.Inf(-1)
	}
	// 1−alpha collapses to 1.0 in float64 below ~1e-16, so the exact
	// quantile is only usable for moderate alphas.
	if alpha >= 1e-12 {
		return NormalQuantile(1 - alpha)
	}
	// For ultra-small alpha invert the asymptotic tail expansion
	// Q(z) ≈ φ(z)/z ⇒ z ≈ sqrt(2L − log(2L) − log(2π)), L = −ln(alpha).
	L := -math.Log(alpha)
	z := math.Sqrt(2 * L)
	for i := 0; i < 50; i++ {
		z = math.Sqrt(2 * (L - math.Log(z) - 0.5*math.Log(2*math.Pi)))
	}
	return z
}

// PoissonTest reports whether the observed support is significantly larger
// than expected at level alpha — the "x <p y" relation of the paper. For
// large expectations it uses the sigma-unit Gaussian approximation of the
// Poisson distribution (so arbitrarily small alphas remain testable, per
// the paper's §7.4.2 remark); for small expectations the Gaussian
// approximation overstates significance badly (at λ=0.05, observing one
// point is 4σ "significant" but has exact probability 0.05), so the exact
// tail is used instead.
func PoissonTest(observed, expected, alpha float64) bool {
	return NewPoissonTester(alpha).Test(observed, expected)
}

// PoissonTester is PoissonTest at one significance level, for callers that
// test many supports at the same alpha: the sigma threshold (a normal
// quantile with its erfc refinement) is computed once, not per test.
type PoissonTester struct {
	alpha, sigmas float64
}

// NewPoissonTester returns PoissonTest at level alpha.
func NewPoissonTester(alpha float64) PoissonTester {
	return PoissonTester{alpha: alpha, sigmas: SigmaThreshold(alpha)}
}

// Test is PoissonTest(observed, expected, alpha).
func (t PoissonTester) Test(observed, expected float64) bool {
	if expected < 0 {
		expected = 0
	}
	if expected <= smallLambda {
		k := int(math.Ceil(observed))
		if float64(k) < observed {
			k++
		}
		return PoissonSF(k, expected) < t.alpha
	}
	return PoissonSigmas(observed, expected) > t.sigmas
}

// smallLambda is the expectation below which PoissonTest switches to the
// exact tail. At λ=25 the Gaussian approximation is accurate to the levels
// the pipeline tests at.
const smallLambda = 25

// PoissonTestExact is the textbook version used for moderate alphas and in
// tests: it compares the exact upper-tail p-value P(X ≥ observed) against
// alpha.
func PoissonTestExact(observed int, expected, alpha float64) bool {
	return PoissonSF(observed, expected) < alpha
}
