package linalg

import (
	"fmt"
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

// addReference is the West/Welford update Add performs, written out
// independently: each S entry recomputes x_b − µ_new,b.
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

// TestMomentsAddMatchesReferenceBits pins Add, the per-point reference the
// block fold is held to, to the direct loop bit for bit, at dimensions 1
// to 11, on offset data, with zero, tiny and non-finite weights and
// coordinates.
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

// accumulateBlocks folds rows[lo:hi) (in points) with AddBlock, cutting
// them into blocks of MomentsBlock points from lo.
func accumulateBlocks(rows, weights []float64, d, lo, hi int) Moments {
	m := NewMoments(d)
	for b := lo; b < hi; b += MomentsBlock {
		e := min(b+MomentsBlock, hi)
		w := make([]float64, e-b)
		for i := range w {
			w[i] = 1
			if weights != nil {
				w[i] = weights[b+i]
			}
		}
		m.AddBlock(rows[b*d:e*d], w)
	}
	return m
}

// sameMoments reports whether a and b hold the same bits.
func sameMoments(a, b Moments) bool {
	same := func(x, y []float64) bool {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return len(x) == len(y)
	}
	return same([]float64{a.W, a.W2}, []float64{b.W, b.W2}) && same(a.Mean, b.Mean) && same(a.S, b.S)
}

// TestMomentsAddBlockMatchesTwoPass is TestMomentsMatchesTwoPass for the
// block kernel, at dimensions on both sides of its 2×4 tile and with a
// partial last block: on data whose mean (1e6) dwarfs its spread
// (σ = 1e-3), the shifted block sums must keep the two-pass accuracy.
func TestMomentsAddBlockMatchesTwoPass(t *testing.T) {
	const n, offset, sigma = 2000, 1e6, 1e-3
	for _, d := range []int{1, 2, 3, 4, 5, 7, 16} {
		rows, weights := momentsData(n, d, offset, sigma, 1)

		unit := accumulateBlocks(rows, nil, d, 0, n)
		mu := Mean(rows, d)
		if unit.W != n {
			t.Errorf("d=%d: unit weight sum %g, want %d", d, unit.W, n)
		}
		if e := absErr(unit.Mean, mu); e > 1e-5*sigma {
			t.Errorf("d=%d: unit-weight mean off by %g", d, e)
		}
		if e := relErr(unit.SampleCov().Data, Covariance(rows, d, mu).Data); e > 1e-6 {
			t.Errorf("d=%d: SampleCov relative error %g vs two-pass Covariance", d, e)
		}

		wm := accumulateBlocks(rows, weights, d, 0, n)
		lin, w, w2 := WeightedMoments(rows, d, weights)
		wmu := make([]float64, d)
		for j := range wmu {
			wmu[j] = lin[j] / w
		}
		if math.Abs(wm.W-w) > 1e-12*w || math.Abs(wm.W2-w2) > 1e-12*w2 {
			t.Errorf("d=%d: weight sums (%g, %g), reference (%g, %g)", d, wm.W, wm.W2, w, w2)
		}
		if e := absErr(wm.Mean, wmu); e > 1e-5*sigma {
			t.Errorf("d=%d: weighted mean off by %g", d, e)
		}
		if e := relErr(wm.WeightedCov().Data, WeightedCovariance(rows, d, weights, wmu).Data); e > 1e-6 {
			t.Errorf("d=%d: WeightedCov relative error %g vs two-pass WeightedCovariance", d, e)
		}
		if !wm.WeightedCov().IsSymmetric(0) {
			t.Errorf("d=%d: WeightedCov not exactly symmetric", d)
		}
	}
}

// TestMomentsAddBlockMatchesAdd: at every dimension from 1 to 11 (every
// tile edge) and every block length, the block fold agrees with the
// per-point Add to rounding, for blocks both into an empty and into a
// running accumulator.
func TestMomentsAddBlockMatchesAdd(t *testing.T) {
	const n = 3*MomentsBlock + 5
	for d := 1; d <= 11; d++ {
		rows, weights := momentsData(n, d, 3, 2, int64(d))
		want := accumulate(rows, weights, d, 0, n)
		for _, size := range []int{1, 2, 5, MomentsBlock - 1, MomentsBlock} {
			got := NewMoments(d)
			for b := 0; b < n; b += size {
				e := min(b+size, n)
				got.AddBlock(rows[b*d:e*d], weights[b:e])
			}
			if math.Abs(got.W-want.W) > 1e-12*want.W || math.Abs(got.W2-want.W2) > 1e-12*want.W2 {
				t.Errorf("d=%d block %d: weights (%g, %g), Add (%g, %g)", d, size, got.W, got.W2, want.W, want.W2)
			}
			if e := relErr(got.Mean, want.Mean); e > 1e-12 {
				t.Errorf("d=%d block %d: mean relative error %g", d, size, e)
			}
			if e := relErr(got.S, want.S); e > 1e-12 {
				t.Errorf("d=%d block %d: scatter relative error %g", d, size, e)
			}
		}
	}
}

// TestMomentsAddBlockOneRow: a one-point block agrees with Add to
// rounding at every step of a stream; the first, into the empty
// accumulator, is exact.
func TestMomentsAddBlockOneRow(t *testing.T) {
	const n, d = 300, 6
	rows, weights := momentsData(n, d, 3, 2, 5)
	got, want := NewMoments(d), NewMoments(d)
	for i := 0; i < n; i++ {
		x := rows[i*d : (i+1)*d]
		got.AddBlock(x, weights[i:i+1])
		want.Add(x, weights[i])
		if i == 0 && !sameMoments(got, want) {
			t.Fatalf("first point: block %+v, Add %+v", got, want)
		}
		if got.W != want.W || relErr(got.S, want.S) > 1e-12 || relErr(got.Mean, want.Mean) > 1e-14 {
			t.Fatalf("point %d: block %+v, Add %+v", i, got, want)
		}
	}
}

// TestMomentsAddBlockIntoEmpty: a block folded into an empty accumulator
// holds the block's weights, mean and scatter, and merging it into a
// running accumulator matches folding the block there directly.
func TestMomentsAddBlockIntoEmpty(t *testing.T) {
	const d = 5
	rows, weights := momentsData(2*MomentsBlock, d, 7, 0.5, 6)
	blk := NewMoments(d)
	blk.AddBlock(rows[:MomentsBlock*d], weights[:MomentsBlock])
	ref := accumulate(rows, weights, d, 0, MomentsBlock)
	if math.Abs(blk.W-ref.W) > 1e-14*ref.W {
		t.Errorf("weight %g, Add %g", blk.W, ref.W)
	}
	if e := relErr(blk.Mean, ref.Mean); e > 1e-14 {
		t.Errorf("mean relative error %g", e)
	}
	if e := relErr(blk.S, ref.S); e > 1e-12 {
		t.Errorf("scatter relative error %g", e)
	}

	direct := accumulateBlocks(rows, weights, d, MomentsBlock, 2*MomentsBlock)
	merged := direct
	merged.Mean, merged.S = append([]float64(nil), direct.Mean...), append([]float64(nil), direct.S...)
	merged.Merge(blk)
	direct.AddBlock(rows[:MomentsBlock*d], weights[:MomentsBlock])
	if e := relErr(direct.Mean, merged.Mean); e > 1e-14 {
		t.Errorf("fold vs merge: mean relative error %g", e)
	}
	if e := relErr(direct.S, merged.S); e > 1e-12 {
		t.Errorf("fold vs merge: scatter relative error %g", e)
	}
}

// TestMomentsAddBlockZeroWeights: a block of zero weights leaves an empty
// or a running accumulator bit-identical, and zero-weight points inside a
// block (with non-finite coordinates, which must not leak in as 0·Inf)
// give the bits of the block without them.
func TestMomentsAddBlockZeroWeights(t *testing.T) {
	const d = 4
	rows, weights := momentsData(MomentsBlock, d, 5, 1, 7)
	zeros := make([]float64, MomentsBlock)
	for _, m := range []Moments{NewMoments(d), accumulateBlocks(rows, weights, d, 0, 10)} {
		before := m
		before.Mean, before.S = append([]float64(nil), m.Mean...), append([]float64(nil), m.S...)
		m.AddBlock(rows, zeros)
		if !sameMoments(m, before) {
			t.Errorf("zero-weight block changed %+v to %+v", before, m)
		}
	}

	holes := append([]float64(nil), rows...)
	holed := append([]float64(nil), weights...)
	var keptRows, keptW []float64
	for i := 0; i < MomentsBlock; i++ {
		if i%3 == 1 {
			holed[i] = 0
			holes[i*d] = math.Inf(1)
			holes[i*d+1] = math.NaN()
			continue
		}
		keptRows = append(keptRows, rows[i*d:(i+1)*d]...)
		keptW = append(keptW, weights[i])
	}
	for _, start := range []int{0, 10} {
		got := accumulateBlocks(rows, weights, d, 0, start)
		want := accumulateBlocks(rows, weights, d, 0, start)
		got.AddBlock(holes, holed)
		want.AddBlock(keptRows, keptW)
		if !sameMoments(got, want) {
			t.Errorf("start=%d: zero-weight points changed the block fold: %+v vs %+v", start, got, want)
		}
	}
}

// TestMomentsAddBlockTinyWeights is TestMomentsZeroAndTinyWeights' tiny
// half for blocks: uniformly tiny (1e-300) weights give the unit-weight
// mean and scatter shape without NaN, and the same degenerate (zero)
// WeightedCov as the two-pass reference.
func TestMomentsAddBlockTinyWeights(t *testing.T) {
	const n, d = 400, 3
	rows, _ := momentsData(n, d, 5, 1, 4)
	unit := accumulateBlocks(rows, nil, d, 0, n)
	tinyW := make([]float64, n)
	for i := range tinyW {
		tinyW[i] = 1e-300
	}
	tiny := accumulateBlocks(rows, tinyW, d, 0, n)
	for _, v := range append(append([]float64{tiny.W, tiny.W2}, tiny.Mean...), tiny.S...) {
		if math.IsNaN(v) {
			t.Fatalf("tiny weights gave NaN: %+v", tiny)
		}
	}
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
	want := WeightedCovariance(rows, d, tinyW, tiny.Mean)
	got := tiny.WeightedCov()
	perPoint := accumulate(rows, tinyW, d, 0, n)
	for i, v := range got.Data {
		if math.IsNaN(v) || v != want.Data[i] || v != perPoint.WeightedCov().Data[i] {
			t.Fatalf("tiny-weight WeightedCov = %v, reference %v", got.Data, want.Data)
		}
	}
}

// foldStream draws n points and, per point, the components among k that
// hold it: each of the first k−1 with probability 1/3, so points lie in
// several components or in none, and component k−1 holds no point.
func foldStream(n, d, k int, seed int64) (rows []float64, members [][]int) {
	rows, _ = momentsData(n, d, 3, 2, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	members = make([][]int, n)
	for i := range members {
		for c := 0; c < k-1; c++ {
			if rng.Intn(3) == 0 {
				members[i] = append(members[i], c)
			}
		}
	}
	return rows, members
}

// TestMomentsFoldSparseUnitWeights pushes streams of 64·m + r points with
// sparse unit weights, as the EM-initialization and in-core mappers do.
// Per component, the fold must hold the bits of AddBlock over the same
// 64-point blocks, W and W2 must be the exact member count that
// estimateCoreModel and the in-core estimators read, the moments must
// agree with the per-point Add reference to AddBlock's tolerance, and a
// component that got no point must stay empty, so its partial is not
// emitted.
func TestMomentsFoldSparseUnitWeights(t *testing.T) {
	const k = 4
	for _, d := range []int{1, 5, 19} {
		for _, m := range []int{0, 1, 3} {
			for _, r := range []int{0, 1, 17, MomentsBlock - 1} {
				n := m*MomentsBlock + r
				rows, members := foldStream(n, d, k, int64(100*d+n))
				f := NewMomentsFold(k, d)
				for i, cs := range members {
					f.PushUnit(rows[i*d:(i+1)*d], cs...)
				}
				got := f.Moments()
				for c := 0; c < k; c++ {
					w := make([]float64, n)
					count := 0
					for i, cs := range members {
						for _, ci := range cs {
							if ci == c {
								w[i] = 1
								count++
							}
						}
					}
					name := func() string { return fmt.Sprintf("d=%d n=%d component %d", d, n, c) }
					if !sameMoments(got[c], accumulateBlocks(rows, w, d, 0, n)) {
						t.Errorf("%s: fold differs from AddBlock over the same blocks", name())
					}
					if got[c].W != float64(count) || got[c].W2 != float64(count) {
						t.Errorf("%s: W, W2 = %v, %v; want the member count %d", name(), got[c].W, got[c].W2, count)
					}
					if count == 0 {
						if !sameMoments(got[c], NewMoments(d)) {
							t.Errorf("%s: no point, but the fold is not empty: %+v", name(), got[c])
						}
						continue
					}
					want := accumulate(rows, w, d, 0, n)
					if e := relErr(got[c].Mean, want.Mean); e > 1e-12 {
						t.Errorf("%s: mean relative error %g against Add", name(), e)
					}
					if e := relErr(got[c].S, want.S); e > 1e-12 {
						t.Errorf("%s: scatter relative error %g against Add", name(), e)
					}
				}
			}
		}
	}
}

// TestMomentsFoldAllocs: once each component has its block scratch, a
// block of pushes, its fold included, allocates nothing.
func TestMomentsFoldAllocs(t *testing.T) {
	const d, k = 19, 4
	rows, members := foldStream(MomentsBlock, d, k, 3)
	f := NewMomentsFold(k, d)
	block := func() {
		for i, cs := range members {
			f.PushUnit(rows[i*d:(i+1)*d], cs...)
		}
	}
	block()
	if allocs := testing.AllocsPerRun(50, block); allocs != 0 {
		t.Fatalf("%v allocations per block, want 0", allocs)
	}
}
