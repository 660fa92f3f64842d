package stats

import (
	"math"
	"math/bits"
	"sort"
)

// ChiSquareUniformTest performs the standard chi-square goodness-of-fit test
// of the observed bin counts against the uniform distribution. It returns
// the statistic and the p-value P(X² ≥ stat). Bins with zero expected count
// (empty input) yield p = 1.
func ChiSquareUniformTest(counts []int64) (stat, pValue float64) {
	k := len(counts)
	if k < 2 {
		return 0, 1
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0, 1
	}
	expected := float64(n) / float64(k)
	for _, c := range counts {
		d := float64(c) - expected
		stat += d * d / expected
	}
	return stat, ChiSquareSF(stat, k-1)
}

// IsUniform reports whether the chi-square test fails to reject uniformity of
// counts at significance level alpha.
func IsUniform(counts []int64, alpha float64) bool {
	_, p := ChiSquareUniformTest(counts)
	return p >= alpha
}

// CohenD computes the effect-size statistic of §4.1.2 (Eq. 4) with
// σ = expected support:
//
//	d_cc = (observed − expected) / expected
//
// i.e. the relative deviation of the observed from the expected support.
// For expected ≤ 0 it returns +Inf when anything was observed, else 0.
func CohenD(observed, expected float64) float64 {
	if expected <= 0 {
		if observed > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return (observed - expected) / expected
}

// EffectSizeTest reports whether the effect is at least theta: the
// "θcc ≤ Cohen's d_cc" criterion complementing the Poisson significance
// test in cluster-core generation.
func EffectSizeTest(observed, expected, theta float64) bool {
	return CohenD(observed, expected) >= theta
}

// --- Order statistics ---------------------------------------------------------

// Median returns the sample median of xs. It sorts a copy; the input is not
// modified. It panics on empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: median of empty sample")
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return medianSorted(cp)
}

// MedianInPlace returns the median of xs, reordering xs instead of copying
// it: it selects the middle order statistics rather than sorting, in O(n).
// NaNs order first, as sort.Float64s orders them, so the result equals
// Median's (up to the sign of a zero median, which sorting leaves to the
// sort algorithm too). It panics on empty input.
func MedianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: median of empty sample")
	}
	n := len(xs)
	selectNth(xs, n/2)
	if n%2 == 1 {
		return xs[n/2]
	}
	// xs[:n/2] holds the n/2 smallest values: the lower middle is their
	// maximum.
	lo := xs[0]
	for _, v := range xs[1 : n/2] {
		if lo < v || (lo != lo && v == v) {
			lo = v
		}
	}
	return (lo + xs[n/2]) / 2
}

// selectNth reorders xs so that xs[k] holds the value sort.Float64s would
// put there, with nothing larger before it and nothing smaller after it
// (NaN ordering first). It returns the number of element visits (the NaN
// pass plus each partitioning round, or an estimate for a fallback sort),
// the work that stays linear on sorted, reversed and constant input.
func selectNth(xs []float64, k int) (work int) {
	// NaNs first; the rest is ordered by <.
	nan := 0
	for i, v := range xs {
		if v != v {
			xs[i], xs[nan] = xs[nan], xs[i]
			nan++
		}
	}
	if k < nan {
		return len(xs)
	}
	a, k := xs[nan:], k-nan
	lo, hi := 0, len(a)-1
	// A median-of-three quickselect; an input that defeats its pivots past
	// the round budget finishes with a sort of what is left.
	for rounds := 3 * bits.Len(uint(len(a))); hi > lo; rounds-- {
		if rounds == 0 {
			sort.Float64s(a[lo : hi+1])
			return len(xs) + work + (hi-lo+1)*bits.Len(uint(hi-lo+1))
		}
		work += hi - lo + 1
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		p := a[mid]
		// Hoare partition: afterwards a[lo..j] ≤ p, a[i..hi] ≥ p and
		// every element strictly between j and i equals p.
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for p < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return len(xs) + work
		}
	}
	return len(xs) + work
}

func medianSorted(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// --- Histogram bin-count rules -------------------------------------------------

// SturgesBins returns ⌈1 + log₂ n⌉, the rule used by the original P3C. The
// paper shows it oversmooths for large n (§4.1.1).
func SturgesBins(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(1 + math.Log2(float64(n))))
}

// FreedmanDiaconisBins returns the bin count implied by the
// Freedman–Diaconis rule, bin size = 2·IQR·n^(−1/3), on data spanning
// dataRange. P3C+ assumes each attribute is uniform on [0,1] so that
// IQR = 1/2 and dataRange = 1 (§4.1.1); pass iqr = 0.5, dataRange = 1 for
// that behaviour.
func FreedmanDiaconisBins(n int, iqr, dataRange float64) int {
	if n <= 1 || iqr <= 0 || dataRange <= 0 {
		return 1
	}
	width := 2 * iqr * math.Pow(float64(n), -1.0/3.0)
	bins := int(math.Ceil(dataRange / width))
	if bins < 1 {
		bins = 1
	}
	return bins
}

// FreedmanDiaconisBinsUniform applies the paper's simplification IQR = 1/2 on
// normalized [0,1] attributes: bin size = n^(−1/3), i.e. ⌈n^(1/3)⌉ bins.
func FreedmanDiaconisBinsUniform(n int) int {
	return FreedmanDiaconisBins(n, 0.5, 1)
}
