// Package dataset provides the vector data-set abstraction used across the
// P3C+ pipeline: row-major in-memory storage, min-max normalization to
// [0,1], partitioning into MapReduce splits, CSV and binary codecs, and the
// synthetic workload generators of the paper's evaluation (§7.1).
package dataset

import (
	"fmt"
	"math"

	"p3cmr/internal/mr"
)

// Dataset is an n×d row-major collection of points. The zero value is an
// empty data set.
type Dataset struct {
	Dim int
	// Rows holds the points, len == N()*Dim. A data set carries a mark
	// that its rows passed Validate: Validate sets it (ReadBinary and
	// ReadCSV call it), Normalize and Append clear it, and ValidateOnce
	// skips the scan while it holds. Code that writes Rows directly calls
	// Validate again before handing the data set on. Rows read by
	// ReadBinary from a regular file may be a private mapping of it
	// (see ReadBinary): writes to them never reach the file.
	Rows []float64

	valid bool
	scans int // Validate's scans of the values, for tests
}

// New returns an empty data set of the given dimensionality.
func New(dim int) *Dataset {
	if dim <= 0 {
		panic("dataset: dimensionality must be positive")
	}
	return &Dataset{Dim: dim}
}

// FromRows wraps existing row-major data (not copied).
func FromRows(dim int, rows []float64) *Dataset {
	if dim <= 0 || len(rows)%dim != 0 {
		panic("dataset: rows length not a multiple of dim")
	}
	return &Dataset{Dim: dim, Rows: rows}
}

// N returns the number of points.
func (d *Dataset) N() int {
	if d.Dim == 0 {
		return 0
	}
	return len(d.Rows) / d.Dim
}

// Row returns point i as a view (not a copy).
func (d *Dataset) Row(i int) []float64 { return d.Rows[i*d.Dim : (i+1)*d.Dim] }

// Append adds a point; the slice is copied.
func (d *Dataset) Append(row []float64) {
	if len(row) != d.Dim {
		panic("dataset: row dimensionality mismatch")
	}
	d.Rows = append(d.Rows, row...)
	d.valid = false
}

// Clone deep-copies the data set, with its Validate mark.
func (d *Dataset) Clone() *Dataset {
	return &Dataset{Dim: d.Dim, Rows: append([]float64(nil), d.Rows...), valid: d.valid}
}

// Subset returns a new data set containing the rows at the given indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Dim: d.Dim, Rows: make([]float64, 0, len(idx)*d.Dim)}
	for _, i := range idx {
		out.Rows = append(out.Rows, d.Row(i)...)
	}
	return out
}

// Splits partitions the data set into numSplits MapReduce splits of nearly
// equal size (the paper relies on this natural load balance, §5). Fewer,
// larger splits are produced when n < numSplits.
func (d *Dataset) Splits(numSplits int) []*mr.Split {
	n := d.N()
	if numSplits <= 0 {
		numSplits = 1
	}
	if numSplits > n {
		numSplits = n
	}
	if n == 0 {
		return nil
	}
	splits := make([]*mr.Split, 0, numSplits)
	base := n / numSplits
	rem := n % numSplits
	off := 0
	for s := 0; s < numSplits; s++ {
		sz := base
		if s < rem {
			sz++
		}
		splits = append(splits, &mr.Split{
			ID:     s,
			Offset: off,
			Dim:    d.Dim,
			Rows:   d.Rows[off*d.Dim : (off+sz)*d.Dim],
		})
		off += sz
	}
	return splits
}

// Bounds returns per-attribute minima and maxima. For an empty data set both
// slices are zero-filled.
func (d *Dataset) Bounds() (mins, maxs []float64) {
	mins = make([]float64, d.Dim)
	maxs = make([]float64, d.Dim)
	n := d.N()
	if n == 0 {
		return mins, maxs
	}
	copy(mins, d.Row(0))
	copy(maxs, d.Row(0))
	for i := 1; i < n; i++ {
		row := d.Row(i)
		for j, v := range row {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	return mins, maxs
}

// Normalize rescales every attribute to [0,1] in place (the paper assumes a
// normalized data space throughout). Constant attributes map to 0. It clears
// the Validate mark: an attribute whose span is subnormal scales to ±Inf.
func (d *Dataset) Normalize() {
	d.valid = false
	mins, maxs := d.Bounds()
	n := d.N()
	for j := 0; j < d.Dim; j++ {
		span := maxs[j] - mins[j]
		if span <= 0 {
			for i := 0; i < n; i++ {
				d.Rows[i*d.Dim+j] = 0
			}
			continue
		}
		inv := 1 / span
		for i := 0; i < n; i++ {
			d.Rows[i*d.Dim+j] = (d.Rows[i*d.Dim+j] - mins[j]) * inv
		}
	}
}

// Clamp01 clips every coordinate into [0,1]; generator noise at cluster
// borders can leave values epsilon outside the unit cube.
func (d *Dataset) Clamp01() {
	for i, v := range d.Rows {
		if v < 0 {
			d.Rows[i] = 0
		} else if v > 1 {
			d.Rows[i] = 1
		}
	}
}

// validateBlock is the number of values Validate checks with one branch.
const validateBlock = 256

// Validate checks structural invariants and value sanity (no NaN/Inf) and
// returns a descriptive error on the first violation. It always scans the
// values, and marks the data set valid when they pass.
func (d *Dataset) Validate() error {
	d.valid = false
	if err := d.checkShape(); err != nil {
		return err
	}
	d.scans++
	for lo := 0; lo < len(d.Rows); lo += validateBlock {
		block := d.Rows[lo:min(lo+validateBlock, len(d.Rows))]
		if finite(block) {
			continue
		}
		for i, v := range block {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				i += lo
				return fmt.Errorf("dataset: non-finite value at flat index %d (row %d, col %d)", i, i/d.Dim, i%d.Dim)
			}
		}
	}
	d.valid = true
	return nil
}

// ValidateOnce is Validate for a data set whose rows have not passed it
// since they last changed through Normalize or Append: a data set with the
// mark gets only the structural checks.
func (d *Dataset) ValidateOnce() error {
	if d.valid {
		return d.checkShape()
	}
	return d.Validate()
}

// checkShape is Validate's structural check.
func (d *Dataset) checkShape() error {
	if d.Dim <= 0 {
		return fmt.Errorf("dataset: non-positive dimensionality %d", d.Dim)
	}
	if len(d.Rows)%d.Dim != 0 {
		return fmt.Errorf("dataset: %d values not divisible by dim %d", len(d.Rows), d.Dim)
	}
	return nil
}

// finite reports whether every value of b is finite, without a branch per
// value: v·0 is NaN exactly when v is NaN or ±Inf (else ±0), and a sum
// with a NaN term is NaN.
func finite(b []float64) bool {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(b); i += 4 {
		s0 += b[i] * 0
		s1 += b[i+1] * 0
		s2 += b[i+2] * 0
		s3 += b[i+3] * 0
	}
	for ; i < len(b); i++ {
		s0 += b[i] * 0
	}
	s := s0 + s1 + s2 + s3
	return s == s
}
