package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestChiSquareUniformTestOnUniformData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rejections := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		counts := make([]int64, 10)
		for i := 0; i < 1000; i++ {
			counts[rng.Intn(10)]++
		}
		if !IsUniform(counts, 0.01) {
			rejections++
		}
	}
	// At alpha=0.01 we expect ~1% false rejections; allow generous slack.
	if rejections > 12 {
		t.Errorf("%d/%d uniform samples rejected at alpha=0.01", rejections, trials)
	}
}

func TestChiSquareUniformTestOnSkewedData(t *testing.T) {
	counts := []int64{500, 50, 50, 50, 50, 50, 50, 50, 50, 50}
	if IsUniform(counts, 0.001) {
		t.Error("clearly skewed counts accepted as uniform")
	}
	stat, p := ChiSquareUniformTest(counts)
	if stat <= 0 || p >= 0.001 {
		t.Errorf("stat=%g p=%g", stat, p)
	}
}

func TestChiSquareUniformTestDegenerate(t *testing.T) {
	if _, p := ChiSquareUniformTest(nil); p != 1 {
		t.Error("empty counts must have p=1")
	}
	if _, p := ChiSquareUniformTest([]int64{5}); p != 1 {
		t.Error("single bin must have p=1")
	}
	if _, p := ChiSquareUniformTest([]int64{0, 0, 0}); p != 1 {
		t.Error("all-zero counts must have p=1")
	}
}

func TestCohenD(t *testing.T) {
	if got := CohenD(135, 100); !close(got, 0.35, 1e-12) {
		t.Errorf("CohenD = %g, want 0.35", got)
	}
	if !math.IsInf(CohenD(5, 0), 1) {
		t.Error("positive observation over zero expectation must be +Inf")
	}
	if CohenD(0, 0) != 0 {
		t.Error("zero/zero must be 0")
	}
	if CohenD(50, 100) >= 0 {
		t.Error("under-representation must be negative")
	}
}

func TestEffectSizeTestThreshold(t *testing.T) {
	// θcc = 0.35 (the paper default): 35% relative deviation is the line.
	if !EffectSizeTest(135, 100, 0.35) {
		t.Error("exactly θcc must pass (≤ comparison)")
	}
	if EffectSizeTest(134, 100, 0.35) {
		t.Error("below θcc must fail")
	}
}

func TestMedian(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median wrong")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even median wrong")
	}
	if Median([]float64{7}) != 7 {
		t.Error("singleton median wrong")
	}
	// Median must not mutate its input.
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Error("Median mutated input")
	}
}

func TestMedianInPlaceMatchesMedian(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, v := range xs {
			if math.IsNaN(v) {
				return true
			}
		}
		a := Median(xs)
		b := MedianInPlace(append([]float64(nil), xs...))
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sortedMedian is the sort.Float64s oracle MedianInPlace's selection
// replaced.
func sortedMedian(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return medianSorted(cp)
}

// sameMedian compares medians as values: NaN equals NaN, and −0 equals +0,
// whose order sort.Float64s leaves to its algorithm too.
func sameMedian(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestMedianInPlaceMatchesSortOracle checks the selection median against
// the sort oracle at odd and even sizes, on random data, constant input,
// heavy ties, NaNs (which order first), ±Inf and signed zeros, and on
// sorted and reversed input.
func TestMedianInPlaceMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	gens := map[string]func(i, n int) float64{
		"random":   func(int, int) float64 { return rng.NormFloat64() },
		"constant": func(int, int) float64 { return 2.5 },
		"ties":     func(int, int) float64 { return float64(rng.Intn(3)) },
		"special":  func(int, int) float64 { return special[rng.Intn(len(special))] },
		"mixed": func(int, int) float64 {
			if rng.Intn(4) == 0 {
				return special[rng.Intn(len(special))]
			}
			return rng.NormFloat64()
		},
		"sorted":   func(i, n int) float64 { return float64(i) },
		"reversed": func(i, n int) float64 { return float64(n - i) },
	}
	for name, gen := range gens {
		for _, n := range []int{1, 2, 3, 4, 1000, 1001} {
			for trial := 0; trial < 20; trial++ {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = gen(i, n)
				}
				want := sortedMedian(xs)
				if got := MedianInPlace(xs); !sameMedian(got, want) {
					t.Fatalf("%s n=%d trial %d: MedianInPlace = %v, sort oracle %v", name, n, trial, got, want)
				}
			}
		}
	}
}

// TestSelectNthLinearOnOrderedInput: the selection's partitioning work
// stays linear — within a few passes over the input — on the inputs that
// send a naive quickselect quadratic: sorted, reversed and constant.
func TestSelectNthLinearOnOrderedInput(t *testing.T) {
	const n = 1 << 16
	for name, gen := range map[string]func(i int) float64{
		"sorted":   func(i int) float64 { return float64(i) },
		"reversed": func(i int) float64 { return float64(n - i) },
		"constant": func(int) float64 { return 1 },
	} {
		for _, k := range []int{0, n/2 - 1, n / 2, n - 1} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(i)
			}
			cp := append([]float64(nil), xs...)
			sort.Float64s(cp)
			want := cp[k]
			if work := selectNth(xs, k); work > 5*n {
				t.Errorf("%s k=%d: %d elements scanned for n=%d", name, k, work, n)
			}
			if xs[k] != want {
				t.Errorf("%s k=%d: selected %v, want %v", name, k, xs[k], want)
			}
		}
	}
}

func TestMedianPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Median(nil)
}

func TestSturgesBins(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1},
		{2, 2},
		{100, 8},    // 1+log2(100)=7.64 → 8
		{10000, 15}, // 1+13.29 → 15
		{1000000, 21},
	}
	for _, c := range cases {
		if got := SturgesBins(c.n); got != c.want {
			t.Errorf("SturgesBins(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFreedmanDiaconisBins(t *testing.T) {
	// Uniform simplification: bin size n^(−1/3) ⇒ ⌈n^(1/3)⌉ bins.
	cases := []struct{ n, want int }{
		{1000, 10},
		{8000, 20},
		{1000000, 100},
	}
	for _, c := range cases {
		if got := FreedmanDiaconisBinsUniform(c.n); got != c.want {
			t.Errorf("FD(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	if FreedmanDiaconisBins(0, 0.5, 1) != 1 || FreedmanDiaconisBins(100, 0, 1) != 1 {
		t.Error("degenerate inputs must yield 1 bin")
	}
}

// TestFDProducesMoreBinsThanSturges checks the §4.1.1 claim that drives the
// P3C+ change: for large n, Sturges oversmooths relative to FD.
func TestFDProducesMoreBinsThanSturges(t *testing.T) {
	for _, n := range []int{10000, 100000, 1000000, 10000000} {
		if FreedmanDiaconisBinsUniform(n) <= SturgesBins(n) {
			t.Errorf("FD(%d)=%d not greater than Sturges=%d", n, FreedmanDiaconisBinsUniform(n), SturgesBins(n))
		}
	}
}
