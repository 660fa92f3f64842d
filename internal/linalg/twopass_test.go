package linalg

// The two-pass forms of §5.4's weighted moments: the references the
// one-pass Moments accumulator is tested against.

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
