package linalg

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
