package linalg

import "math"

// Mean computes the column-wise mean of the rows. Rows is a row-major flat
// slice with the given dimensionality; n = len(rows)/dim samples.
func Mean(rows []float64, dim int) []float64 {
	if dim <= 0 || len(rows)%dim != 0 {
		panic(ErrShape)
	}
	n := len(rows) / dim
	mu := make([]float64, dim)
	if n == 0 {
		return mu
	}
	for i := 0; i < n; i++ {
		row := rows[i*dim : (i+1)*dim]
		for j, v := range row {
			mu[j] += v
		}
	}
	inv := 1 / float64(n)
	for j := range mu {
		mu[j] *= inv
	}
	return mu
}

// Covariance computes the sample covariance matrix (denominator n-1) of the
// row-major data with the given mean. With fewer than two samples the zero
// matrix is returned.
func Covariance(rows []float64, dim int, mu []float64) *Matrix {
	n := len(rows) / dim
	cov := NewMatrix(dim, dim)
	if n < 2 {
		return cov
	}
	diff := make([]float64, dim)
	for i := 0; i < n; i++ {
		row := rows[i*dim : (i+1)*dim]
		for j := range diff {
			diff[j] = row[j] - mu[j]
		}
		for a := 0; a < dim; a++ {
			da := diff[a]
			if da == 0 {
				continue
			}
			crow := cov.Row(a)
			for b := a; b < dim; b++ {
				crow[b] += da * diff[b]
			}
		}
	}
	inv := 1 / float64(n-1)
	for a := 0; a < dim; a++ {
		for b := a; b < dim; b++ {
			v := cov.At(a, b) * inv
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov
}

// WeightedMoments accumulates the weighted linear sum, weight sum and squared
// weight sum of the rows — the quantities lC, wC and wC² of §5.4 of the
// paper. weights[i] is the weight of row i.
func WeightedMoments(rows []float64, dim int, weights []float64) (linear []float64, w, w2 float64) {
	n := len(rows) / dim
	if len(weights) != n {
		panic(ErrShape)
	}
	linear = make([]float64, dim)
	for i := 0; i < n; i++ {
		wi := weights[i]
		if wi == 0 {
			continue
		}
		row := rows[i*dim : (i+1)*dim]
		for j, v := range row {
			linear[j] += wi * v
		}
		w += wi
		w2 += wi * wi
	}
	return linear, w, w2
}

// WeightedCovariance computes the unbiased weighted sample covariance
//
//	Σ = w/(w² − w2) · Σᵢ wᵢ (xᵢ−µ)(xᵢ−µ)ᵀ
//
// matching the formula in §5.4. It returns the zero matrix when the
// normalizer degenerates.
func WeightedCovariance(rows []float64, dim int, weights, mu []float64) *Matrix {
	n := len(rows) / dim
	cov := NewMatrix(dim, dim)
	var w, w2 float64
	diff := make([]float64, dim)
	for i := 0; i < n; i++ {
		wi := weights[i]
		if wi == 0 {
			continue
		}
		w += wi
		w2 += wi * wi
		row := rows[i*dim : (i+1)*dim]
		for j := range diff {
			diff[j] = row[j] - mu[j]
		}
		for a := 0; a < dim; a++ {
			da := wi * diff[a]
			if da == 0 {
				continue
			}
			crow := cov.Row(a)
			for b := a; b < dim; b++ {
				crow[b] += da * diff[b]
			}
		}
	}
	denom := w*w - w2
	if denom <= 0 {
		return NewMatrix(dim, dim)
	}
	f := w / denom
	for a := 0; a < dim; a++ {
		for b := a; b < dim; b++ {
			v := cov.At(a, b) * f
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov
}

// RegularizeSPD adds ridge*I (and a floor on diagonal entries) so that a
// covariance estimate becomes numerically positive definite. It mutates and
// returns m.
func RegularizeSPD(m *Matrix, ridge float64) *Matrix {
	n := m.Rows
	for i := 0; i < n; i++ {
		d := m.At(i, i) + ridge
		if d < ridge {
			d = ridge
		}
		m.Set(i, i, d)
	}
	return m
}

// MahalanobisSq returns the squared Mahalanobis distance (x−µ)ᵀ Σ⁻¹ (x−µ)
// using a precomputed Cholesky factor of Σ. diffScratch and solveScratch may
// be nil or caller-provided buffers of length ≥ len(x).
func MahalanobisSq(x, mu []float64, chol *Cholesky, diffScratch, solveScratch []float64) float64 {
	n := len(x)
	if diffScratch == nil {
		diffScratch = make([]float64, n)
	}
	d := diffScratch[:n]
	for i := range d {
		d[i] = x[i] - mu[i]
	}
	return chol.QuadForm(d, solveScratch)
}

// GaussianLogPDF evaluates the log density of N(µ, Σ) at x, given the
// Cholesky factor of Σ and its log determinant.
func GaussianLogPDF(x, mu []float64, chol *Cholesky, logDet float64, diffScratch, solveScratch []float64) float64 {
	k := float64(len(x))
	m2 := MahalanobisSq(x, mu, chol, diffScratch, solveScratch)
	return -0.5 * (k*math.Log(2*math.Pi) + logDet + m2)
}
