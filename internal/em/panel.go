package em

import (
	"math"

	"p3cmr/internal/mr"
)

// panelRows is the number of points the panel kernel evaluates together:
// linalg.Cholesky.QuadForm4's width.
const panelRows = 4

// panel evaluates the mixture's component log-densities for panelRows
// projected points at once: one QuadForm4 per component instead of one
// QuadForm per point and component. Each point sees exactly LogPDF's
// operations in LogPDF's order, so every density, and everything derived
// from it, is bit-identical to the per-point path.
type panel struct {
	m    *Model
	n    int                  // points buffered
	x    []float64            // the buffered points, row-major: point p is x[p·d:(p+1)·d]
	diff [][panelRows]float64 // x − µ_i as a d × panelRows panel
	y    [][panelRows]float64 // QuadForm4 scratch
	lp   []float64            // lp[panelRows·i+p] = log p(x_p|G_i)
}

func newPanel(m *Model) *panel {
	d := len(m.Attrs)
	return &panel{
		m:    m,
		x:    make([]float64, panelRows*d),
		diff: make([][panelRows]float64, d),
		y:    make([][panelRows]float64, d),
		lp:   make([]float64, panelRows*m.K()),
	}
}

// add projects row into the next free slot and reports whether the panel
// is now full.
func (b *panel) add(row []float64) bool {
	b.m.Project(b.point(b.n), row)
	b.n++
	return b.n == panelRows
}

// point returns buffered point p.
func (b *panel) point(p int) []float64 {
	d := len(b.m.Attrs)
	return b.x[p*d : (p+1)*d]
}

// logPDFs fills lp for a full panel: lp[panelRows·i+p] is, to the bit,
// LogPDF(i, point p).
func (b *panel) logPDFs() {
	d := len(b.m.Attrs)
	var q [panelRows]float64
	for i, c := range b.m.Components {
		for p := 0; p < panelRows; p++ {
			for j, v := range b.x[p*d : (p+1)*d] {
				b.diff[j][p] = v - c.Mean[j]
			}
		}
		c.chol.QuadForm4(&q, b.diff, b.y)
		lp := b.lp[panelRows*i : panelRows*(i+1)]
		for p, qp := range q {
			lp[p] = -0.5 * (c.norm + qp)
		}
	}
}

// mostLikely is MostLikely of point p, read from lp.
func (b *panel) mostLikely(p int) int {
	best, bestLL := 0, math.Inf(-1)
	for i := range b.m.Components {
		if ll := b.lp[panelRows*i+p]; ll > bestLL {
			best, bestLL = i, ll
		}
	}
	return best
}

// responsibilities is Responsibilities of point p, read from lp.
func (b *panel) responsibilities(resp []float64, p int) float64 {
	for i, c := range b.m.Components {
		if c.Weight <= 0 {
			resp[i] = math.Inf(-1)
			continue
		}
		resp[i] = c.logW + b.lp[panelRows*i+p]
	}
	return normalize(resp)
}

// assignments returns MostLikely of every row of s, in row order: full
// panels through the panel kernel, the remainder point by point.
func (m *Model) assignments(s *mr.Split) []int32 {
	n := s.NumRows()
	lab := make([]int32, n)
	b := newPanel(m)
	r := 0
	for ; r+panelRows <= n; r += panelRows {
		for p := 0; p < panelRows; p++ {
			b.add(s.Row(r + p))
		}
		b.logPDFs()
		for p := 0; p < panelRows; p++ {
			lab[r+p] = int32(b.mostLikely(p))
		}
		b.n = 0
	}
	d := len(m.Attrs)
	x, sc1, sc2 := b.point(0), make([]float64, d), make([]float64, d)
	for ; r < n; r++ {
		lab[r] = int32(m.MostLikely(m.Project(x, s.Row(r)), sc1, sc2))
	}
	return lab
}

// Assigner is a model whose assignment column is shared across jobs: the
// MostLikely label of every row of a split, computed once per split and
// model and kept in the split's memo. The outlier phase's jobs assign every
// point under the same EM mixture, so only the first of them pays for it.
type Assigner struct {
	*Model
	key assignKey
}

// assignKey is the Split.Memo key of an assignment column: the model's
// encoded ModelSpec, so distinct models never share a column.
type assignKey string

// Assigner rebuilds the spec's model and fixes its memo key. Job builders
// call it, so the key is computed once per job, before any mapper
// goroutine shares the model.
func (sp ModelSpec) Assigner() (*Assigner, error) {
	m, err := sp.Model()
	if err != nil {
		return nil, err
	}
	key, err := mr.EncodeSpec(sp)
	if err != nil {
		return nil, err
	}
	return &Assigner{Model: m, key: assignKey(key)}, nil
}

// Labels returns the split's assignment column: entry global−s.Offset is
// MostLikely of the point of global index global, bit for bit.
func (a *Assigner) Labels(s *mr.Split) []int32 {
	return s.Memo(a.key, func() any { return a.assignments(s) }).([]int32)
}
