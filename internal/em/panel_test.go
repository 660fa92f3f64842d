package em

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
)

// gaussianLogPDF is the textbook log density of N(µ, Σ) at x, given the
// Cholesky factor of Σ: the oracle LogPDF's hoisted constants must
// reproduce to the bit.
func gaussianLogPDF(x, mu []float64, chol *linalg.Cholesky) float64 {
	k := float64(len(x))
	m2 := linalg.MahalanobisSq(x, mu, chol, nil, nil)
	return -0.5 * (k*math.Log(2*math.Pi) + chol.LogDet() + m2)
}

// randomModel is a prepared k-component mixture over attrs with full,
// correlated covariances and unequal weights; zeroWeight sets component 0's
// weight to 0.
func randomModel(t *testing.T, rng *rand.Rand, attrs []int, k int, zeroWeight bool) *Model {
	t.Helper()
	d := len(attrs)
	m := &Model{Attrs: attrs}
	for i := 0; i < k; i++ {
		b := linalg.NewMatrix(d, d)
		for j := range b.Data {
			b.Data[j] = rng.NormFloat64() * 0.1
		}
		cov := linalg.Mul(b, b.Transpose())
		linalg.RegularizeSPD(cov, 0.01)
		mean := make([]float64, d)
		for j := range mean {
			mean[j] = rng.Float64()
		}
		m.Components = append(m.Components, &Component{Weight: 0.1 + rng.Float64(), Mean: mean, Cov: cov})
	}
	if zeroWeight {
		m.Components[0].Weight = 0
	}
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	return m
}

// randomSplit is a split of n random rows of dim attributes at offset 100.
func randomSplit(rng *rand.Rand, n, dim int) *mr.Split {
	rows := make([]float64, n*dim)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	return &mr.Split{ID: 0, Offset: 100, Dim: dim, Rows: rows}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLogPDFStandardNormal: the 1-D standard normal's log density at 0 is
// −½·log 2π, with the variance 1 + ridge that Prepare factors.
func TestLogPDFStandardNormal(t *testing.T) {
	m := &Model{Attrs: []int{0}, Components: []*Component{{Weight: 1, Mean: []float64{0}, Cov: linalg.NewMatrixFrom(1, 1, []float64{1})}}}
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	got := m.LogPDF(0, []float64{0}, nil, nil)
	if want := -0.5 * (math.Log(2*math.Pi) + math.Log1p(ridge)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("logPDF = %g, want %g", got, want)
	}
}

// TestPanelMatchesPerPointPath pins the panel kernel to the per-point
// path bit for bit: every log density against the textbook oracle and
// LogPDF, every argmax against MostLikely, and every responsibility vector
// and log-likelihood against Responsibilities — at dimensions on both
// sides of the panel width, with a zero-weight component, and with NaN and
// ±Inf coordinates in the points.
func TestPanelMatchesPerPointPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for _, d := range []int{1, 2, 3, 5, 17} {
		attrs := rng.Perm(d + 3)[:d]
		for _, zero := range []bool{false, true} {
			m := randomModel(t, rng, attrs, 4, zero)
			b := newPanel(m)
			resp, want := make([]float64, m.K()), make([]float64, m.K())
			for trial := 0; trial < 50; trial++ {
				for p := 0; p < panelRows; p++ {
					row := make([]float64, d+3)
					for j := range row {
						row[j] = rng.Float64()
						if trial%5 == 4 && rng.Intn(2*d) == 0 {
							row[j] = special[rng.Intn(len(special))]
						}
					}
					if full := b.add(row); full != (p == panelRows-1) {
						t.Fatalf("add reported full=%v after %d points", full, p+1)
					}
				}
				b.logPDFs()
				for p := 0; p < panelRows; p++ {
					x := b.point(p)
					for i, c := range m.Components {
						got := b.lp[panelRows*i+p]
						if lp := m.LogPDF(i, x, nil, nil); !sameBits(got, lp) {
							t.Fatalf("d=%d trial %d point %d component %d: panel %v, LogPDF %v", d, trial, p, i, got, lp)
						}
						if or := gaussianLogPDF(x, c.Mean, c.chol); !sameBits(got, or) {
							t.Fatalf("d=%d trial %d point %d component %d: panel %v, oracle %v", d, trial, p, i, got, or)
						}
					}
					if got, ml := b.mostLikely(p), m.MostLikely(x, nil, nil); got != ml {
						t.Fatalf("d=%d trial %d point %d: panel argmax %d, MostLikely %d", d, trial, p, got, ml)
					}
					ll := b.responsibilities(resp, p)
					wantLL := m.Responsibilities(want, x, nil, nil)
					if !sameBits(ll, wantLL) {
						t.Fatalf("d=%d trial %d point %d: panel log p(x) %v, Responsibilities %v", d, trial, p, ll, wantLL)
					}
					for i := range resp {
						if !sameBits(resp[i], want[i]) {
							t.Fatalf("d=%d trial %d point %d: resp[%d] %v, Responsibilities %v", d, trial, p, i, resp[i], want[i])
						}
					}
				}
				b.n = 0
			}
		}
	}
}

// referenceMoments is the per-point E-step fold the em-moments mapper
// replaced: Responsibilities, then LL, entropy and Moments.Add per point,
// in row order.
func referenceMoments(m *Model, s *mr.Split) []momentStat {
	k, d := m.K(), len(m.Attrs)
	stats := make([]momentStat, k)
	for i := range stats {
		stats[i].Moments = linalg.NewMoments(d)
	}
	resp := make([]float64, k)
	for r := 0; r < s.NumRows(); r++ {
		x := m.Project(nil, s.Row(r))
		stats[0].LL += m.Responsibilities(resp, x, nil, nil)
		h := 0.0
		for _, v := range resp {
			if v > 0 {
				h -= v * math.Log(v)
			}
		}
		stats[0].H += h
		for i, v := range resp {
			stats[i].Add(x, v)
		}
	}
	return stats
}

func sameMomentStat(a, b momentStat) bool {
	if !sameBits(a.W, b.W) || !sameBits(a.W2, b.W2) || !sameBits(a.LL, b.LL) || !sameBits(a.H, b.H) {
		return false
	}
	for j := range a.Mean {
		if !sameBits(a.Mean[j], b.Mean[j]) {
			return false
		}
	}
	for j := range a.S {
		if !sameBits(a.S[j], b.S[j]) {
			return false
		}
	}
	return true
}

// referenceBlockMoments is the em-moments fold written from the per-point
// path: Responsibilities, then LL and entropy per point in row order, and
// the points cut into blocks at every linalg.MomentsBlock-th row of the
// split, each folded into every component with one AddBlock.
func referenceBlockMoments(m *Model, s *mr.Split) []momentStat {
	k, d := m.K(), len(m.Attrs)
	stats := make([]momentStat, k)
	for i := range stats {
		stats[i].Moments = linalg.NewMoments(d)
	}
	n := s.NumRows()
	xs := make([]float64, 0, n*d)
	ws := make([][]float64, k)
	resp := make([]float64, k)
	for r := 0; r < n; r++ {
		x := m.Project(nil, s.Row(r))
		xs = append(xs, x...)
		stats[0].LL += m.Responsibilities(resp, x, nil, nil)
		h := 0.0
		for i, v := range resp {
			if v > 0 {
				h -= v * math.Log(v)
			}
			ws[i] = append(ws[i], v)
		}
		stats[0].H += h
	}
	for lo := 0; lo < n; lo += linalg.MomentsBlock {
		hi := min(lo+linalg.MomentsBlock, n)
		for i := range stats {
			stats[i].AddBlock(xs[lo*d:hi*d], ws[i][lo:hi])
		}
	}
	return stats
}

// momentsJobSizes are split sizes around the panel width and the block
// size: an empty split, full panels with a Cleanup remainder of every
// length, and full blocks with and without a partial last one.
var momentsJobSizes = []int{0, 1, 3, 4, 5, linalg.MomentsBlock - 1, linalg.MomentsBlock, linalg.MomentsBlock + 1, 2*linalg.MomentsBlock + 3, 4097}

// runMomentsJob runs the em-moments job over the one split s (its reducer
// copies the lone partial) and returns the per-component stats.
func runMomentsJob(t *testing.T, m *Model, s *mr.Split) []momentStat {
	t.Helper()
	spec, err := mr.EncodeSpec(SpecOf(m))
	if err != nil {
		t.Fatal(err)
	}
	out, err := mr.Default().Run(&mr.Job{Name: "em-moments-0", Splits: []*mr.Split{s}, Impl: "em-moments", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pairs) != m.K() {
		t.Fatalf("n=%d: %d output pairs, want %d", s.NumRows(), len(out.Pairs), m.K())
	}
	stats := make([]momentStat, m.K())
	for _, p := range out.Pairs {
		c, err := mr.ParseIntKey(p.Key, "c", m.K())
		if err != nil {
			t.Fatal(err)
		}
		stats[c] = p.Value.(momentStat)
	}
	return stats
}

// TestMomentsJobMatchesBlockReference pins the em-moments job to the
// block-order reference bit for bit: the panel's densities are the
// per-point ones, and the block boundaries follow the row positions.
func TestMomentsJobMatchesBlockReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomModel(t, rng, []int{0, 2, 3}, 3, false)
	for _, n := range momentsJobSizes {
		s := randomSplit(rng, n, 4)
		want := referenceBlockMoments(m, s)
		for c, got := range runMomentsJob(t, m, s) {
			if !sameMomentStat(got, want[c]) {
				t.Errorf("n=%d component %d: job %+v, block reference %+v", n, c, got, want[c])
			}
		}
	}
}

// TestMomentsJobNearPerPointReference: the block fold agrees with the
// per-point Moments.Add fold to rounding, and the convergence sums, still
// added point by point in row order, agree to the bit.
func TestMomentsJobNearPerPointReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomModel(t, rng, []int{0, 2, 3}, 3, true)
	near := func(got, want []float64) bool {
		scale := 0.0
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12*scale {
				return false
			}
		}
		return true
	}
	for _, n := range momentsJobSizes {
		s := randomSplit(rng, n, 4)
		want := referenceMoments(m, s)
		for c, got := range runMomentsJob(t, m, s) {
			w := want[c]
			if !sameBits(got.LL, w.LL) || !sameBits(got.H, w.H) {
				t.Errorf("n=%d component %d: LL, H = %v, %v; per-point %v, %v", n, c, got.LL, got.H, w.LL, w.H)
			}
			if !near([]float64{got.W, got.W2}, []float64{w.W, w.W2}) || !near(got.Mean, w.Mean) || !near(got.S, w.S) {
				t.Errorf("n=%d component %d: job %+v, per-point reference %+v", n, c, got.Moments, w.Moments)
			}
		}
	}
}

// TestMomentsMapperPanelAllocs pins the mapper at zero allocations per
// block of linalg.MomentsBlock rows: its panels and the block's fold into
// every component.
func TestMomentsMapperPanelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomModel(t, rng, []int{0, 1, 2, 3, 4}, 4, false)
	s := randomSplit(rng, linalg.MomentsBlock, 6)
	mp := &momentsMapper{model: m}
	if err := mp.Setup(nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for r := 0; r < linalg.MomentsBlock; r++ {
			mp.Map(nil, s.Offset+r, s.Row(r))
		}
		if mp.panel.n != 0 {
			t.Fatalf("a full block left %d rows in the panel", mp.panel.n)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per block, want 0", allocs)
	}
}

// TestAssignerLabels: a split's assignment column is built once per split
// and model — a second call, and a second Assigner decoded from the same
// spec as another job would, return the same column — a different model
// gets its own entry, and every label equals MostLikely of its row.
func TestAssignerLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	attrs := []int{1, 2, 4}
	specA, specB := SpecOf(randomModel(t, rng, attrs, 3, false)), SpecOf(randomModel(t, rng, attrs, 3, false))
	assigner := func(sp ModelSpec) *Assigner {
		a, err := sp.Assigner()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1, a2, b := assigner(specA), assigner(specA), assigner(specB)
	for _, n := range []int{1, 3, 4, 7, 4097} {
		s := randomSplit(rng, n, 5)
		la := a1.Labels(s)
		if len(la) != n {
			t.Fatalf("n=%d: column of %d labels", n, len(la))
		}
		if &a1.Labels(s)[0] != &la[0] || &a2.Labels(s)[0] != &la[0] {
			t.Fatalf("n=%d: one model's column was built twice", n)
		}
		lb := b.Labels(s)
		if &lb[0] == &la[0] {
			t.Fatalf("n=%d: distinct models share one column", n)
		}
		for _, c := range []struct {
			lab []int32
			a   *Assigner
		}{{la, a1}, {lb, b}} {
			for r := 0; r < n; r++ {
				if want := c.a.MostLikely(c.a.Project(nil, s.Row(r)), nil, nil); int(c.lab[r]) != want {
					t.Fatalf("n=%d row %d: column label %d, MostLikely %d", n, r, c.lab[r], want)
				}
			}
		}
	}
}

// TestAssignerLabelsConcurrent: map tasks of different jobs over one split
// ask for the same column at once (run under -race); all get one column.
func TestAssignerLabelsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, err := SpecOf(randomModel(t, rng, []int{0, 1}, 2, false)).Assigner()
	if err != nil {
		t.Fatal(err)
	}
	s := randomSplit(rng, 1000, 3)
	cols := make([][]int32, 8)
	var wg sync.WaitGroup
	for i := range cols {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cols[i] = a.Labels(s)
		}(i)
	}
	wg.Wait()
	for _, c := range cols {
		if &c[0] != &cols[0][0] {
			t.Fatal("concurrent callers got different columns")
		}
	}
}
