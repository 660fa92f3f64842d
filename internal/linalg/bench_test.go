package linalg

import (
	"math/rand"
	"testing"
)

func benchSPD(b *testing.B, n int) *Matrix {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return randomSPD(rng, n)
}

func BenchmarkCholeskyDecompose(b *testing.B) {
	for _, n := range []int{4, 16, 50} {
		a := benchSPD(b, n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CholeskyDecompose(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMahalanobisSq(b *testing.B) {
	for _, n := range []int{4, 16, 50} {
		a := benchSPD(b, n)
		ch, err := CholeskyDecompose(a)
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, n)
		mu := make([]float64, n)
		rng := rand.New(rand.NewSource(2))
		for i := range x {
			x[i] = rng.Float64()
			mu[i] = rng.Float64()
		}
		diff := make([]float64, n)
		solve := make([]float64, n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MahalanobisSq(x, mu, ch, diff, solve)
			}
		})
		// The panel arm solves four points per op against one factor, as
		// the EM and outlier kernels do: compare its ns/op with four times
		// the per-point arm's.
		xs := make([][4]float64, n)
		for j := range x {
			for p := range xs[j] {
				xs[j][p] = x[j] - mu[j]
			}
		}
		panel := make([][4]float64, n)
		b.Run(sizeName(n)+"/panel", func(b *testing.B) {
			b.ReportAllocs()
			var q [4]float64
			for i := 0; i < b.N; i++ {
				ch.QuadForm4(&q, xs, panel)
			}
		})
	}
}

func BenchmarkCovariance(b *testing.B) {
	const n, d = 1000, 16
	rng := rand.New(rand.NewSource(3))
	rows := make([]float64, n*d)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	mu := Mean(rows, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Covariance(rows, d, mu)
	}
}

func BenchmarkLUSolve(b *testing.B) {
	a := benchSPD(b, 16)
	lu, err := LUDecompose(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 16)
	for i := range rhs {
		rhs[i] = float64(i)
	}
	dst := make([]float64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lu.Solve(dst, rhs)
	}
}

func sizeName(n int) string {
	switch n {
	case 4:
		return "d=4"
	case 16:
		return "d=16"
	default:
		return "d=50"
	}
}

// BenchmarkMomentsAdd folds one point per op into a d-dimensional
// accumulator, the E-step's per-point, per-component update.
func BenchmarkMomentsAdd(b *testing.B) {
	for _, n := range []int{4, 16, 50} {
		rng := rand.New(rand.NewSource(4))
		pts := make([][]float64, 64)
		for i := range pts {
			pts[i] = make([]float64, n)
			for j := range pts[i] {
				pts[i][j] = rng.Float64()
			}
		}
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			m := NewMoments(n)
			for i := 0; i < b.N; i++ {
				m.Add(pts[i%len(pts)], 0.5)
			}
		})
	}
}

// BenchmarkMomentsAddBlock folds one block of MomentsBlock points per op
// into a d-dimensional accumulator; ns/point compares with
// BenchmarkMomentsAdd's ns/op.
func BenchmarkMomentsAddBlock(b *testing.B) {
	for _, n := range []int{4, 16, 50} {
		rng := rand.New(rand.NewSource(4))
		rows := make([]float64, MomentsBlock*n)
		for i := range rows {
			rows[i] = rng.Float64()
		}
		w := make([]float64, MomentsBlock)
		for i := range w {
			w[i] = 0.5
		}
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			m := NewMoments(n)
			for i := 0; i < b.N; i++ {
				m.AddBlock(rows, w)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*MomentsBlock), "ns/point")
		})
	}
}

// BenchmarkMomentsFoldSparse pushes one block of MomentsBlock points per
// op into a fold of k = 4 components at d = 19 (mvb-200k's shape), each
// point with unit weight on one component, as the EM-initialization and
// in-core mappers push; ns/point compares with BenchmarkMomentsAdd's ns/op.
func BenchmarkMomentsFoldSparse(b *testing.B) {
	const k, d = 4, 19
	rng := rand.New(rand.NewSource(4))
	rows := make([]float64, MomentsBlock*d)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	comp := make([]int, MomentsBlock)
	for i := range comp {
		comp[i] = rng.Intn(k)
	}
	f := NewMomentsFold(k, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p, c := range comp {
			f.PushUnit(rows[p*d:(p+1)*d], c)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*MomentsBlock), "ns/point")
}
