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
// Production code folds by block only: every moments job feeds its points
// through a MomentsFold, which calls AddBlock on each component. AddBlock
// sums a block of up to MomentsBlock points around a reference point with
// a register-tiled kernel and folds the sums in with Chan's update, instead
// of one Welford step per point. Add, that per-point step, is the reference
// the tests hold AddBlock to: the two differ by rounding only. The block
// order stays deterministic because it depends only on which points form
// each block: MomentsFold cuts its stream at every MomentsBlock-th point,
// so a mapper that pushes its split's points in row order gets the same
// bits on every backend, parallelism and retry.
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

	// blk is AddBlock's scratch (see there). It does not cross the
	// shuffle, and a copy of the value shares it, so only one copy may
	// AddBlock.
	blk []float64
}

// MomentsBlock is the most points AddBlock folds in one call. It is a
// constant, not a parameter, so that block boundaries, and with them the
// summation order, follow from the points' positions alone.
const MomentsBlock = 64

// NewMoments returns an empty accumulator for d-dimensional points.
func NewMoments(d int) Moments {
	return Moments{Mean: make([]float64, d), S: make([]float64, d*(d+1)/2)}
}

// Add accumulates the point x with weight w, one West update. Zero
// weights are skipped, so they leave the accumulator bit-for-bit
// unchanged.
func (m *Moments) Add(x []float64, w float64) {
	if w == 0 {
		return
	}
	m.W += w
	m.W2 += w * w
	r := w / m.W
	// S += w·(x − µ_old)(x − µ_new)ᵀ. Walking the rows from the last one
	// down, row a updates µ_a just before it is used, and the entries
	// b > a already see the new mean, so no copy of the old mean is
	// needed.
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

// AddBlock accumulates the n = len(w) ≤ MomentsBlock points of rows
// (row-major, point p is rows[p·d:(p+1)·d]) with weights w. Zero-weight
// points are skipped, as Add skips them, so a block of zero weights leaves
// the accumulator bit-for-bit unchanged.
//
// The block is shifted to y = x − c around a reference point c: the
// current mean, or, while the accumulator is empty, the block's point of
// largest weight (the one most likely near the mean). A tiled kernel sums
// Σw, Σw², s = Σw·y and T = Σw·yyᵀ in point order, with no divide and no
// store into S per point. The block's own mean is c + s/W_b and its scatter
// T − ssᵀ/W_b, and Chan's update (Merge's) adds that scatter plus
// W·W_b/W'·(s/W_b)(s/W_b)ᵀ for the shift between the two means. With
// c = µ the three terms collapse to
//
//	S' = S + T − s·(s/W')ᵀ,  µ' = c + s/W',  W' = W + W_b,
//
// which also covers the empty accumulator (W = 0, S = 0). Centring on the
// running mean keeps s small, so subtracting s·(s/W')ᵀ cancels little even
// for data far from the origin.
func (m *Moments) AddBlock(rows, w []float64) {
	const B = MomentsBlock
	d := len(m.Mean)
	if len(w) > B || len(rows) < len(w)*d {
		panic("linalg: AddBlock needs at most MomentsBlock points of the accumulator's dimension")
	}
	// The block's points of nonzero weight, in order: index and weight.
	var idx [B]int
	var wc [B]float64
	n := 0
	var wb, w2b float64
	for p, wp := range w {
		if wp != 0 {
			idx[n], wc[n] = p, wp
			wb += wp
			w2b += wp * wp
			n++
		}
	}
	if n == 0 {
		return
	}
	c := m.Mean
	if m.W == 0 {
		best := 0
		for q := 1; q < n; q++ {
			if wc[q] > wc[best] {
				best = q
			}
		}
		c = rows[idx[best]*d : (idx[best]+1)*d]
	}
	wNew := m.W + wb
	// blk holds y and w·y column by column (column a of y is
	// yt[a·B : a·B+n]), then s and g = s/W'.
	if len(m.blk) != 2*d*B+2*d {
		m.blk = make([]float64, 2*d*B+2*d)
	}
	yt, wyt := m.blk[:d*B], m.blk[d*B:2*d*B]
	s, g := m.blk[2*d*B:2*d*B+d], m.blk[2*d*B+d:]
	for a, ca := range c[:d] {
		y, wy := yt[a*B:a*B+n], wyt[a*B:a*B+n]
		wy = wy[:len(y)]
		var sa float64
		for q, p := range idx[:len(y)] {
			v := rows[p*d+a] - ca
			u := wc[q] * v
			y[q], wy[q] = v, u
			sa += u
		}
		s[a] = sa
		g[a] = sa / wNew
	}
	m.addTiles(yt, wyt, s, g, n)
	for a := range m.Mean {
		m.Mean[a] = c[a] + g[a]
	}
	m.W = wNew
	m.W2 += w2b
}

// addTiles adds T − s·gᵀ to the packed scatter, T = Σ_p wy_p·y_pᵀ over the
// block's n points. Each tile holds a 2×4 patch of T in registers over the
// whole block, so every product is loaded once per patch and S is touched
// once per block. Tiles on the diagonal also form the lower entry
// (a+1, a), which is not stored.
func (m *Moments) addTiles(yt, wyt, s, g []float64, n int) {
	const B = MomentsBlock
	d := len(m.Mean)
	col := func(t []float64, a int) []float64 { return t[a*B : a*B+n] }
	// put adds the patch entries (r, b..b+len(t)−1) that lie on or above
	// the diagonal.
	put := func(r, b int, t []float64) {
		off := r*(2*d-r+1)/2 - r
		for j, v := range t {
			if b+j >= r {
				m.S[off+b+j] += v - s[r]*g[b+j]
			}
		}
	}
	a := 0
	for ; a+2 <= d; a += 2 {
		u0, u1 := col(wyt, a), col(wyt, a+1)
		u1 = u1[:len(u0)]
		b := a
		for ; b+4 <= d; b += 4 {
			v0, v1, v2, v3 := col(yt, b), col(yt, b+1), col(yt, b+2), col(yt, b+3)
			v0, v1, v2, v3 = v0[:len(u0)], v1[:len(u0)], v2[:len(u0)], v3[:len(u0)]
			var t00, t01, t02, t03, t10, t11, t12, t13 float64
			for p, x0 := range u0 {
				x1 := u1[p]
				y := v0[p]
				t00 += x0 * y
				t10 += x1 * y
				y = v1[p]
				t01 += x0 * y
				t11 += x1 * y
				y = v2[p]
				t02 += x0 * y
				t12 += x1 * y
				y = v3[p]
				t03 += x0 * y
				t13 += x1 * y
			}
			put(a, b, []float64{t00, t01, t02, t03})
			put(a+1, b, []float64{t10, t11, t12, t13})
		}
		for ; b+2 <= d; b += 2 {
			v0, v1 := col(yt, b), col(yt, b+1)
			v0, v1 = v0[:len(u0)], v1[:len(u0)]
			var t00, t01, t10, t11 float64
			for p, x0 := range u0 {
				x1 := u1[p]
				y := v0[p]
				t00 += x0 * y
				t10 += x1 * y
				y = v1[p]
				t01 += x0 * y
				t11 += x1 * y
			}
			put(a, b, []float64{t00, t01})
			put(a+1, b, []float64{t10, t11})
		}
		for ; b < d; b++ {
			v0 := col(yt, b)
			v0 = v0[:len(u0)]
			var t0, t1 float64
			for p, x0 := range u0 {
				t0 += x0 * v0[p]
				t1 += u1[p] * v0[p]
			}
			put(a, b, []float64{t0})
			put(a+1, b, []float64{t1})
		}
	}
	if a < d {
		u0, v0 := col(wyt, a), col(yt, a)
		v0 = v0[:len(u0)]
		var t0 float64
		for p, x0 := range u0 {
			t0 += x0 * v0[p]
		}
		put(a, a, []float64{t0})
	}
}

// MomentsFold accumulates k Moments, one per component, over a stream of
// points that each carry a weight per component: the map side of every
// moments job. Every MomentsBlock pushed points it folds the block into
// each component with one AddBlock, so the result depends only on the
// points pushed and their order.
type MomentsFold struct {
	acc []Moments
	// The block: n points, row-major in x, and their weights in w, at
	// w[i·MomentsBlock+p] for component i and point p.
	x, w []float64
	n    int
}

// NewMomentsFold returns an empty fold of k components over d-dimensional
// points.
func NewMomentsFold(k, d int) *MomentsFold {
	f := &MomentsFold{acc: make([]Moments, k), x: make([]float64, MomentsBlock*d), w: make([]float64, MomentsBlock*k)}
	for i := range f.acc {
		f.acc[i] = NewMoments(d)
	}
	return f
}

// Push adds the point x with weight w[i] for component i.
func (f *MomentsFold) Push(x, w []float64) {
	for i, wi := range w {
		f.w[i*MomentsBlock+f.n] = wi
	}
	f.push(x)
}

// PushUnit adds the point x with unit weight for each of the distinct
// components cs and zero weight for the others.
func (f *MomentsFold) PushUnit(x []float64, cs ...int) {
	for _, c := range cs {
		f.w[c*MomentsBlock+f.n] = 1
	}
	f.push(x)
}

// push puts x into the block, whose weights the caller has set, and folds
// the block when it is full.
func (f *MomentsFold) push(x []float64) {
	d := len(f.x) / MomentsBlock
	copy(f.x[f.n*d:(f.n+1)*d], x)
	f.n++
	if f.n == MomentsBlock {
		f.flush()
	}
}

// flush folds the block into every component and empties it, zeroing its
// weights for PushUnit.
func (f *MomentsFold) flush() {
	d := len(f.x) / MomentsBlock
	for i := range f.acc {
		w := f.w[i*MomentsBlock : i*MomentsBlock+f.n]
		f.acc[i].AddBlock(f.x[:f.n*d], w)
		clear(w)
	}
	f.n = 0
}

// Moments folds the last, partial block and returns the k accumulators,
// in component order; a component that got no weight has W = 0. Call it
// once, after the last push.
func (f *MomentsFold) Moments() []Moments {
	f.flush()
	return f.acc
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
// §5.4. It returns the zero matrix when the normaliser degenerates.
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
