package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// momentsData draws n d-dimensional points with per-dimension offsets
// around offset and standard deviation sigma, plus positive weights.
func momentsData(n, d int, offset, sigma float64, seed int64) (rows, weights []float64) {
	rng := rand.New(rand.NewSource(seed))
	rows = make([]float64, n*d)
	weights = make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			rows[i*d+j] = offset + float64(j) + sigma*rng.NormFloat64()
		}
		weights[i] = 0.05 + rng.Float64()
	}
	return rows, weights
}

// accumulate runs one pass over rows[lo:hi) (in points).
func accumulate(rows, weights []float64, d, lo, hi int) Moments {
	m := NewMoments(d)
	for i := lo; i < hi; i++ {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		m.Add(rows[i*d:(i+1)*d], w)
	}
	return m
}

// relErr is the largest |got−want| over the entries, relative to the
// largest |want|.
func relErr(got, want []float64) float64 {
	scale, worst := 0.0, 0.0
	for i := range want {
		scale = math.Max(scale, math.Abs(want[i]))
		worst = math.Max(worst, math.Abs(got[i]-want[i]))
	}
	if scale == 0 {
		return worst
	}
	return worst / scale
}

// absErr is the largest |got−want| over the entries.
func absErr(got, want []float64) float64 {
	worst := 0.0
	for i := range want {
		worst = math.Max(worst, math.Abs(got[i]-want[i]))
	}
	return worst
}

// TestMomentsMatchesTwoPass checks the one-pass accumulator against the
// two-pass Covariance/WeightedCovariance reference on data whose mean
// (1e6) dwarfs its spread (σ = 1e-3): a raw Σxxᵀ − nµµᵀ form loses every
// significant digit here, the centred update must not.
func TestMomentsMatchesTwoPass(t *testing.T) {
	const n, d, offset, sigma = 2000, 4, 1e6, 1e-3
	rows, weights := momentsData(n, d, offset, sigma, 1)

	unit := accumulate(rows, nil, d, 0, n)
	mu := Mean(rows, d)
	if e := absErr(unit.Mean, mu); e > 1e-5*sigma {
		t.Errorf("unit-weight mean off by %g", e)
	}
	if e := relErr(unit.SampleCov().Data, Covariance(rows, d, mu).Data); e > 1e-6 {
		t.Errorf("SampleCov relative error %g vs two-pass Covariance", e)
	}

	wm := accumulate(rows, weights, d, 0, n)
	lin, w, w2 := WeightedMoments(rows, d, weights)
	wmu := make([]float64, d)
	for j := range wmu {
		wmu[j] = lin[j] / w
	}
	if wm.W != w || math.Abs(wm.W2-w2) > 1e-12*w2 {
		t.Errorf("weight sums (%g, %g), reference (%g, %g)", wm.W, wm.W2, w, w2)
	}
	if e := absErr(wm.Mean, wmu); e > 1e-5*sigma {
		t.Errorf("weighted mean off by %g", e)
	}
	if e := relErr(wm.WeightedCov().Data, WeightedCovariance(rows, d, weights, wmu).Data); e > 1e-6 {
		t.Errorf("WeightedCov relative error %g vs two-pass WeightedCovariance", e)
	}
	cov := wm.WeightedCov()
	if !cov.IsSymmetric(0) {
		t.Error("WeightedCov not exactly symmetric")
	}
}

// TestMomentsMergeMatchesSinglePass merges 1, 4 and 16 contiguous partials
// in order and compares with one pass over all points.
func TestMomentsMergeMatchesSinglePass(t *testing.T) {
	const n, d = 3000, 5
	rows, weights := momentsData(n, d, 3, 2, 2)
	for _, ws := range [][]float64{nil, weights} {
		whole := accumulate(rows, ws, d, 0, n)
		for _, parts := range []int{1, 4, 16} {
			agg := NewMoments(d)
			for p := 0; p < parts; p++ {
				agg.Merge(accumulate(rows, ws, d, p*n/parts, (p+1)*n/parts))
			}
			if math.Abs(agg.W-whole.W) > 1e-12*whole.W || math.Abs(agg.W2-whole.W2) > 1e-12*whole.W2 {
				t.Errorf("parts=%d: weights (%g, %g), single pass (%g, %g)", parts, agg.W, agg.W2, whole.W, whole.W2)
			}
			if e := relErr(agg.Mean, whole.Mean); e > 1e-12 {
				t.Errorf("parts=%d weighted=%v: mean relative error %g", parts, ws != nil, e)
			}
			if e := relErr(agg.S, whole.S); e > 1e-12 {
				t.Errorf("parts=%d weighted=%v: scatter relative error %g", parts, ws != nil, e)
			}
		}
	}
}

// TestMomentsMergeEmpty: merging into an empty accumulator copies, and
// merging an empty one changes nothing.
func TestMomentsMergeEmpty(t *testing.T) {
	rows, weights := momentsData(50, 3, 1, 1, 3)
	src := accumulate(rows, weights, 3, 0, 50)
	agg := NewMoments(3)
	agg.Merge(src)
	agg.Merge(NewMoments(3))
	if agg.W != src.W || agg.W2 != src.W2 || relErr(agg.Mean, src.Mean) != 0 || relErr(agg.S, src.S) != 0 {
		t.Fatalf("merge with empty changed the accumulator: %+v vs %+v", agg, src)
	}
}

// TestMomentsZeroAndTinyWeights: zero weights leave the accumulator
// bit-identical; uniformly tiny (1e-300) weights give the unit-weight mean
// and scatter shape without underflow or NaN.
func TestMomentsZeroAndTinyWeights(t *testing.T) {
	const n, d = 400, 3
	rows, _ := momentsData(n, d, 5, 1, 4)

	withZeros := NewMoments(d)
	plain := NewMoments(d)
	for i := 0; i < n; i++ {
		x := rows[i*d : (i+1)*d]
		if i%3 == 0 {
			withZeros.Add(x, 0)
			continue
		}
		withZeros.Add(x, 1)
		plain.Add(x, 1)
	}
	if withZeros.W != plain.W || relErr(withZeros.Mean, plain.Mean) != 0 || relErr(withZeros.S, plain.S) != 0 {
		t.Error("zero weights changed the accumulator")
	}

	unit := accumulate(rows, nil, d, 0, n)
	tinyW := make([]float64, n)
	for i := range tinyW {
		tinyW[i] = 1e-300
	}
	tiny := accumulate(rows, tinyW, d, 0, n)
	if e := relErr(tiny.Mean, unit.Mean); e > 1e-12 {
		t.Errorf("tiny-weight mean relative error %g", e)
	}
	scaled := make([]float64, len(tiny.S))
	for i, s := range tiny.S {
		scaled[i] = s / tiny.W * unit.W
	}
	if e := relErr(scaled, unit.S); e > 1e-12 {
		t.Errorf("tiny-weight scatter shape relative error %g", e)
	}
	// W² and W2 underflow, so the §5.4 normaliser degenerates exactly as
	// in the two-pass reference: both give the zero matrix, never NaN.
	want := WeightedCovariance(rows, d, tinyW, tiny.Mean)
	got := tiny.WeightedCov()
	for i, v := range got.Data {
		if math.IsNaN(v) || v != want.Data[i] {
			t.Fatalf("tiny-weight WeightedCov = %v, reference %v", got.Data, want.Data)
		}
	}
}

// TestMomentsFewerThanTwoPoints: n < 2 gives the zero matrix from both
// finishers, like Covariance and WeightedCovariance.
func TestMomentsFewerThanTwoPoints(t *testing.T) {
	empty := NewMoments(2)
	one := NewMoments(2)
	one.Add([]float64{3, -1}, 0.7)
	for name, m := range map[string]*Moments{"empty": &empty, "one point": &one} {
		for _, cov := range []*Matrix{m.SampleCov(), m.WeightedCov()} {
			for _, v := range cov.Data {
				if v != 0 {
					t.Fatalf("%s: covariance %v, want zero", name, cov.Data)
				}
			}
		}
	}
	if one.Mean[0] != 3 || one.Mean[1] != -1 {
		t.Errorf("one-point mean = %v", one.Mean)
	}
}

// addReference is the West/Welford update Add performs, written as the
// direct per-entry loop: each S entry recomputes x_b − µ_new,b.
func addReference(m *Moments, x []float64, w float64) {
	if w == 0 {
		return
	}
	m.W += w
	m.W2 += w * w
	r := w / m.W
	d := len(m.Mean)
	for a := d - 1; a >= 0; a-- {
		delta := x[a] - m.Mean[a]
		m.Mean[a] += delta * r
		da := w * delta
		if da == 0 {
			continue
		}
		off := a * (2*d - a + 1) / 2
		row := m.S[off : off+d-a]
		for i := range row {
			row[i] += da * (x[a+i] - m.Mean[a+i])
		}
	}
}

// TestMomentsAddMatchesReferenceBits pins Add, with its shared x − µ_new
// row and unrolled update, to the direct loop bit for bit, at every row
// length modulo the unroll width, on offset data, with zero, tiny and
// non-finite weights and coordinates.
func TestMomentsAddMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for d := 1; d <= 11; d++ {
		for _, nonFinite := range []bool{false, true} {
			got, want := NewMoments(d), NewMoments(d)
			for i := 0; i < 200; i++ {
				x := make([]float64, d)
				for j := range x {
					x[j] = 1e6 + 1e-3*rng.NormFloat64()
					if nonFinite && rng.Intn(8*d) == 0 {
						x[j] = special[rng.Intn(len(special))]
					}
				}
				w := []float64{0, 1e-300, rng.Float64(), 1}[rng.Intn(4)]
				got.Add(x, w)
				addReference(&want, x, w)
			}
			for _, c := range []struct {
				name      string
				got, want []float64
			}{{"W", []float64{got.W, got.W2}, []float64{want.W, want.W2}}, {"Mean", got.Mean, want.Mean}, {"S", got.S, want.S}} {
				for j := range c.want {
					if math.Float64bits(c.got[j]) != math.Float64bits(c.want[j]) {
						t.Fatalf("d=%d nonFinite=%v: %s[%d] = %v, reference %v", d, nonFinite, c.name, j, c.got[j], c.want[j])
					}
				}
			}
		}
	}
}
