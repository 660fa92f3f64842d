package linalg

import "math"

// LU holds an LU decomposition with partial pivoting: P*A = L*U.
// L has unit diagonal and is stored (without the diagonal) in the strictly
// lower triangle of LU; U occupies the upper triangle including the diagonal.
type LU struct {
	lu    *Matrix
	pivot []int
	sign  float64
}

// LUDecompose factors the square matrix a. It returns ErrSingular when a
// zero (or sub-eps) pivot is encountered.
func LUDecompose(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Partial pivoting: find the largest magnitude in column k.
		p := k
		maxAbs := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if maxAbs < 1e-300 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivVal
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= f * rk[j]
			}
		}
	}
	return &LU{lu: lu, pivot: piv, sign: sign}, nil
}

// Det returns the determinant of the decomposed matrix.
func (d *LU) Det() float64 {
	det := d.sign
	n := d.lu.Rows
	for i := 0; i < n; i++ {
		det *= d.lu.At(i, i)
	}
	return det
}

// LogDet returns log|det| and the sign of the determinant.
func (d *LU) LogDet() (logAbs, sign float64) {
	n := d.lu.Rows
	sign = d.sign
	for i := 0; i < n; i++ {
		v := d.lu.At(i, i)
		if v < 0 {
			sign = -sign
			v = -v
		}
		logAbs += math.Log(v)
	}
	return logAbs, sign
}

// Solve solves A·x = b, writing into dst (allocated when nil).
func (d *LU) Solve(dst, b []float64) []float64 {
	n := d.lu.Rows
	if len(b) != n {
		panic(ErrShape)
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	// Apply permutation.
	for i := 0; i < n; i++ {
		dst[i] = b[d.pivot[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		row := d.lu.Row(i)
		s := dst[i]
		for j := 0; j < i; j++ {
			s -= row[j] * dst[j]
		}
		dst[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := d.lu.Row(i)
		s := dst[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * dst[j]
		}
		dst[i] = s / row[i]
	}
	return dst
}

// Inverse returns A⁻¹ for the decomposed matrix.
func (d *LU) Inverse() *Matrix {
	n := d.lu.Rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		d.Solve(col, e)
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv
}

// Cholesky holds the lower-triangular factor L with A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
}

// CholeskyDecompose factors a symmetric positive-definite matrix.
func CholeskyDecompose(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		diag := math.Sqrt(d)
		lj[j] = diag
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			li[j] = s / diag
		}
	}
	return &Cholesky{l: l}, nil
}

// L returns the lower-triangular factor (shared storage — do not mutate).
func (c *Cholesky) L() *Matrix { return c.l }

// LogDet returns log(det A) of the factored matrix.
func (c *Cholesky) LogDet() float64 {
	n := c.l.Rows
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Log(c.l.At(i, i))
	}
	return 2 * s
}

// SolveVec solves A·x = b via the two triangular systems.
func (c *Cholesky) SolveVec(dst, b []float64) []float64 {
	n := c.l.Rows
	if len(b) != n {
		panic(ErrShape)
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	// Forward: L·y = b.
	for i := 0; i < n; i++ {
		row := c.l.Row(i)
		s := b[i]
		for j := 0; j < i; j++ {
			s -= row[j] * dst[j]
		}
		dst[i] = s / row[i]
	}
	// Backward: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.At(j, i) * dst[j]
		}
		dst[i] = s / c.l.At(i, i)
	}
	return dst
}

// QuadForm returns xᵀ·A⁻¹·x for the factored matrix A, the core of the
// Mahalanobis distance. scratch must be nil or have length ≥ n.
func (c *Cholesky) QuadForm(x, scratch []float64) float64 {
	n := c.l.Rows
	if len(x) != n {
		panic(ErrShape)
	}
	if scratch == nil {
		scratch = make([]float64, n)
	}
	y := scratch[:n]
	// Solve L·y = x; then xᵀA⁻¹x = yᵀy.
	for i := 0; i < n; i++ {
		row := c.l.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s / row[i]
	}
	q := 0.0
	for _, v := range y {
		q += v * v
	}
	return q
}

// QuadForm4 is QuadForm for four points at once: it fills q[p] with
// xₚᵀ·A⁻¹·xₚ. xs is the n × 4 panel of the points, xs[j][p] = coordinate j
// of point p, and scratch (nil or length ≥ n) receives the four solves in
// the same layout. Each element of L is loaded once for four independent
// dependency chains, while each point sees exactly QuadForm's operations in
// QuadForm's order, so q[p] is bit-identical to QuadForm of point p.
func (c *Cholesky) QuadForm4(q *[4]float64, xs, scratch [][4]float64) {
	n := c.l.Rows
	if len(xs) != n {
		panic(ErrShape)
	}
	if scratch == nil {
		scratch = make([][4]float64, n)
	}
	y := scratch[:n]
	var q0, q1, q2, q3 float64
	for i := range y {
		row := c.l.Data[i*n : i*n+i+1]
		x := &xs[i]
		s0, s1, s2, s3 := x[0], x[1], x[2], x[3]
		lrow := row[:i]
		yy := y[:len(lrow)]
		for j, l := range lrow {
			yj := &yy[j]
			s0 -= l * yj[0]
			s1 -= l * yj[1]
			s2 -= l * yj[2]
			s3 -= l * yj[3]
		}
		diag := row[i]
		yi := &y[i]
		yi[0], yi[1], yi[2], yi[3] = s0/diag, s1/diag, s2/diag, s3/diag
		q0 += yi[0] * yi[0]
		q1 += yi[1] * yi[1]
		q2 += yi[2] * yi[2]
		q3 += yi[3] * yi[3]
	}
	*q = [4]float64{q0, q1, q2, q3}
}
