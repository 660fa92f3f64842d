package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("matrix not zeroed")
		}
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Errorf("I[%d,%d] = %g", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 42)
	if m.At(1, 2) != 42 {
		t.Fatal("Set/At mismatch")
	}
	if m.Row(1)[2] != 42 {
		t.Fatal("Row view mismatch")
	}
}

func TestTranspose(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Errorf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		m := NewMatrix(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		tt := m.Transpose().Transpose()
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulIdentity(t *testing.T) {
	m := NewMatrixFrom(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 10})
	p := Mul(m, Identity(3))
	for i := range m.Data {
		if p.Data[i] != m.Data[i] {
			t.Fatal("M*I != M")
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrixFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	p := Mul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if p.Data[i] != w {
			t.Errorf("product[%d] = %g, want %g", i, p.Data[i], w)
		}
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrixFrom(2, 3, []float64{1, 0, 2, 0, 3, 0})
	got := MulVec(nil, m, []float64{1, 2, 3})
	if got[0] != 7 || got[1] != 6 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestAddScaleSub(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatrixFrom(2, 2, []float64{4, 3, 2, 1})
	s := Add(nil, a, b)
	for _, v := range s.Data {
		if v != 5 {
			t.Fatal("Add wrong")
		}
	}
	sc := Scale(nil, 2, a)
	if sc.At(1, 1) != 8 {
		t.Fatal("Scale wrong")
	}
	d := Sub(nil, []float64{5, 5}, []float64{2, 3})
	if d[0] != 3 || d[1] != 2 {
		t.Fatal("Sub wrong")
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 wrong")
	}
}

func TestIsSymmetric(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1})
	if !m.IsSymmetric(0) {
		t.Fatal("should be symmetric")
	}
	m.Set(0, 1, 3)
	if m.IsSymmetric(0.5) {
		t.Fatal("should not be symmetric")
	}
	r := NewMatrix(2, 3)
	if r.IsSymmetric(0) {
		t.Fatal("non-square cannot be symmetric")
	}
}

func TestLUSolve(t *testing.T) {
	a := NewMatrixFrom(3, 3, []float64{4, 2, 1, 2, 5, 3, 1, 3, 6})
	lu, err := LUDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{7, 10, 10}
	x := lu.Solve(nil, b)
	got := MulVec(nil, a, x)
	for i := range b {
		if !almostEq(got[i], b[i], 1e-10) {
			t.Errorf("A·x[%d] = %g, want %g", i, got[i], b[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 4})
	if _, err := LUDecompose(a); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestLUDeterminant(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{3, 1, 4, 2})
	lu, err := LUDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(lu.Det(), 2, 1e-12) {
		t.Fatalf("det = %g, want 2", lu.Det())
	}
	logAbs, sign := lu.LogDet()
	if !almostEq(sign*math.Exp(logAbs), 2, 1e-10) {
		t.Fatalf("LogDet inconsistent: %g %g", logAbs, sign)
	}
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewMatrix(4, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < 4; i++ {
		a.Set(i, i, a.At(i, i)+5)
	}
	lu, err := LUDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := lu.Inverse()
	prod := Mul(a, inv)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEq(prod.At(i, j), want, 1e-9) {
				t.Errorf("A·A⁻¹[%d,%d] = %g", i, j, prod.At(i, j))
			}
		}
	}
}

// randomSPD builds a random symmetric positive-definite matrix.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	spd := Mul(b, b.Transpose())
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n))
	}
	return spd
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		a := randomSPD(rng, n)
		ch, err := CholeskyDecompose(a)
		if err != nil {
			t.Fatal(err)
		}
		l := ch.L()
		rec := Mul(l, l.Transpose())
		for i := range a.Data {
			if !almostEq(rec.Data[i], a.Data[i], 1e-8*(1+math.Abs(a.Data[i]))) {
				t.Fatalf("trial %d: L·Lᵀ != A at %d: %g vs %g", trial, i, rec.Data[i], a.Data[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, −1
	if _, err := CholeskyDecompose(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

func TestCholeskySolveMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSPD(rng, 5)
	b := make([]float64, 5)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	ch, err := CholeskyDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := LUDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	x1 := ch.SolveVec(nil, b)
	x2 := lu.Solve(nil, b)
	for i := range x1 {
		if !almostEq(x1[i], x2[i], 1e-9) {
			t.Errorf("solve mismatch at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
}

// TestQuadForm4MatchesQuadForm pins the panel solve to the per-point one
// bit for bit: random SPD factors at dimensions on both sides of the
// 4-wide interleave, with points that carry NaN and ±Inf coordinates in
// every slot of the panel.
func TestQuadForm4MatchesQuadForm(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for _, n := range []int{1, 2, 3, 17, 18, 50} {
		ch, err := CholeskyDecompose(randomSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			var pts [4][]float64
			xs := make([][4]float64, n)
			for p := range pts {
				pts[p] = make([]float64, n)
				for j := range pts[p] {
					v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
					if trial%2 == 1 && rng.Intn(n+1) == 0 {
						v = special[rng.Intn(len(special))]
					}
					pts[p][j] = v
					xs[j][p] = v
				}
			}
			var got [4]float64
			ch.QuadForm4(&got, xs, nil)
			for p, x := range pts {
				if want := ch.QuadForm(x, nil); math.Float64bits(got[p]) != math.Float64bits(want) {
					t.Fatalf("d=%d trial %d point %d: QuadForm4 = %v (%#x), QuadForm = %v (%#x)",
						n, trial, p, got[p], math.Float64bits(got[p]), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestCholeskyQuadForm(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomSPD(rng, 4)
	ch, err := CholeskyDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	lu, _ := LUDecompose(a)
	x := []float64{1, -2, 0.5, 3}
	// xᵀA⁻¹x via explicit inverse.
	want := Dot(x, MulVec(nil, lu.Inverse(), x))
	got := ch.QuadForm(x, nil)
	if !almostEq(got, want, 1e-9) {
		t.Fatalf("QuadForm = %g, want %g", got, want)
	}
	if got < 0 {
		t.Fatal("quadratic form of SPD matrix must be non-negative")
	}
}

func TestCholeskyLogDet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomSPD(rng, 3)
	ch, _ := CholeskyDecompose(a)
	lu, _ := LUDecompose(a)
	logAbs, sign := lu.LogDet()
	if sign <= 0 {
		t.Fatal("SPD determinant must be positive")
	}
	if !almostEq(ch.LogDet(), logAbs, 1e-9) {
		t.Fatalf("LogDet mismatch: %g vs %g", ch.LogDet(), logAbs)
	}
}

func TestMeanCovariance(t *testing.T) {
	rows := []float64{
		1, 2,
		3, 4,
		5, 6,
	}
	mu := Mean(rows, 2)
	if mu[0] != 3 || mu[1] != 4 {
		t.Fatalf("mean = %v", mu)
	}
	cov := Covariance(rows, 2, mu)
	// Sample covariance of {1,3,5} is 4; cross term also 4 here.
	if !almostEq(cov.At(0, 0), 4, 1e-12) || !almostEq(cov.At(0, 1), 4, 1e-12) {
		t.Fatalf("cov = %v", cov)
	}
	if !cov.IsSymmetric(0) {
		t.Fatal("covariance must be symmetric")
	}
}

func TestCovarianceFewSamples(t *testing.T) {
	cov := Covariance([]float64{1, 2}, 2, []float64{1, 2})
	for _, v := range cov.Data {
		if v != 0 {
			t.Fatal("single-sample covariance must be zero")
		}
	}
}

func TestWeightedMomentsUnweightedMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, d = 50, 3
	rows := make([]float64, n*d)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	lin, ws, w2 := WeightedMoments(rows, d, w)
	if ws != n || w2 != n {
		t.Fatalf("weights: %g %g", ws, w2)
	}
	mu := Mean(rows, d)
	for j := 0; j < d; j++ {
		if !almostEq(lin[j]/ws, mu[j], 1e-12) {
			t.Fatalf("weighted mean mismatch at %d", j)
		}
	}
	wc := WeightedCovariance(rows, d, w, mu)
	c := Covariance(rows, d, mu)
	for i := range c.Data {
		if !almostEq(wc.Data[i], c.Data[i], 1e-10) {
			t.Fatalf("weighted covariance mismatch at %d: %g vs %g", i, wc.Data[i], c.Data[i])
		}
	}
}

func TestWeightedCovarianceZeroWeights(t *testing.T) {
	rows := []float64{1, 2, 3, 4}
	w := []float64{0, 0}
	cov := WeightedCovariance(rows, 2, w, []float64{0, 0})
	for _, v := range cov.Data {
		if v != 0 {
			t.Fatal("zero-weight covariance must be zero")
		}
	}
}

func TestRegularizeSPD(t *testing.T) {
	m := NewMatrix(2, 2)
	RegularizeSPD(m, 1e-3)
	if m.At(0, 0) < 1e-3 || m.At(1, 1) < 1e-3 {
		t.Fatal("diagonal not floored")
	}
	if _, err := CholeskyDecompose(m); err != nil {
		t.Fatal("regularized zero matrix must factor")
	}
}

func TestMahalanobisSqProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randomSPD(rng, 3)
	ch, _ := CholeskyDecompose(a)
	mu := []float64{1, 2, 3}
	// Distance to the mean itself is zero.
	if d := MahalanobisSq(mu, mu, ch, nil, nil); d != 0 {
		t.Fatalf("d(µ,µ) = %g", d)
	}
	// Symmetric in the difference: d(µ+v) == d(µ−v).
	v := []float64{0.5, -1, 0.25}
	p1 := []float64{mu[0] + v[0], mu[1] + v[1], mu[2] + v[2]}
	p2 := []float64{mu[0] - v[0], mu[1] - v[1], mu[2] - v[2]}
	d1 := MahalanobisSq(p1, mu, ch, nil, nil)
	d2 := MahalanobisSq(p2, mu, ch, nil, nil)
	if !almostEq(d1, d2, 1e-10) {
		t.Fatalf("asymmetric: %g vs %g", d1, d2)
	}
	if d1 <= 0 {
		t.Fatal("nonzero offset must have positive distance")
	}
}

func TestIdentityCholeskyMahalanobisIsEuclidean(t *testing.T) {
	ch, _ := CholeskyDecompose(Identity(3))
	x := []float64{3, 4, 0}
	mu := []float64{0, 0, 0}
	if d := MahalanobisSq(x, mu, ch, nil, nil); !almostEq(d, 25, 1e-12) {
		t.Fatalf("identity Mahalanobis² = %g, want 25", d)
	}
}
