package linalg

// Moments accumulates the weighted mean and scatter of a stream of points
// in one pass. The mean is a running mean and the scatter is kept centred
// on it (West's weighted form of Welford's update), so no Σxxᵀ − nµµᵀ
// cancellation occurs even for data far from the origin. Partial
// accumulators over disjoint parts of the data combine exactly with Merge
// (Chan, Golub & LeVeque's pairwise update), which is what lets a map task
// summarise its split and a reducer fold the per-split partials into one
// estimate.
//
// The fields are exported so the value crosses the MapReduce shuffle (gob)
// unchanged; treat them as read-only outside this package.
type Moments struct {
	// W is the weight sum Σw and W2 the squared-weight sum Σw².
	W, W2 float64
	// Mean is the weighted mean of the points added so far.
	Mean []float64
	// S is the upper triangle of the weighted scatter Σw(x−µ)(x−µ)ᵀ,
	// packed row by row: row a holds the entries (a, a..d−1).
	S []float64
}

// NewMoments returns an empty accumulator for d-dimensional points.
func NewMoments(d int) Moments {
	return Moments{Mean: make([]float64, d), S: make([]float64, d*(d+1)/2)}
}

// Add accumulates the point x with weight w. Zero weights are skipped, so
// they leave the accumulator bit-for-bit unchanged.
func (m *Moments) Add(x []float64, w float64) {
	if w == 0 {
		return
	}
	m.W += w
	m.W2 += w * w
	r := w / m.W
	// S += w·(x − µ_old)(x − µ_new)ᵀ. Walking the rows from the last one
	// down, row a updates µ_a just before it is used, and the entries
	// b > a already see the new mean — so no copy of the old mean is needed.
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

// Merge folds the accumulator o (over data disjoint from m's) into m.
// o is not modified. Merging into an empty accumulator copies o.
func (m *Moments) Merge(o Moments) {
	if o.W == 0 {
		return
	}
	if m.W == 0 {
		m.W, m.W2 = o.W, o.W2
		copy(m.Mean, o.Mean)
		copy(m.S, o.S)
		return
	}
	w := m.W + o.W
	r := o.W / w
	coef := m.W * r // W_m·W_o/W
	d := len(m.Mean)
	t := 0
	for a := 0; a < d; a++ {
		da := coef * (o.Mean[a] - m.Mean[a])
		for b := a; b < d; b++ {
			m.S[t] += o.S[t] + da*(o.Mean[b]-m.Mean[b])
			t++
		}
	}
	for j := range m.Mean {
		m.Mean[j] += (o.Mean[j] - m.Mean[j]) * r
	}
	m.W = w
	m.W2 += o.W2
}

// SampleCov returns the unit-weight sample covariance S/(n−1), n = W. With
// fewer than two points it returns the zero matrix.
func (m *Moments) SampleCov() *Matrix {
	if m.W < 2 {
		return NewMatrix(len(m.Mean), len(m.Mean))
	}
	return m.scaledScatter(1 / (m.W - 1))
}

// WeightedCov returns the unbiased weighted covariance W/(W² − W2)·S of
// §5.4 (see WeightedCovariance). It returns the zero matrix when the
// normaliser degenerates.
func (m *Moments) WeightedCov() *Matrix {
	denom := m.W*m.W - m.W2
	if denom <= 0 {
		return NewMatrix(len(m.Mean), len(m.Mean))
	}
	return m.scaledScatter(m.W / denom)
}

// scaledScatter expands f·S into a full symmetric matrix.
func (m *Moments) scaledScatter(f float64) *Matrix {
	d := len(m.Mean)
	cov := NewMatrix(d, d)
	t := 0
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := m.S[t] * f
			cov.Data[a*d+b] = v
			cov.Data[b*d+a] = v
			t++
		}
	}
	return cov
}
