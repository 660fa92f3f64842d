package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestDatasetBasics(t *testing.T) {
	d := New(3)
	if d.N() != 0 {
		t.Fatal("fresh dataset not empty")
	}
	d.Append([]float64{1, 2, 3})
	d.Append([]float64{4, 5, 6})
	if d.N() != 2 {
		t.Fatalf("n = %d", d.N())
	}
	if r := d.Row(1); r[0] != 4 || r[2] != 6 {
		t.Fatalf("row = %v", r)
	}
}

func TestAppendDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).Append([]float64{1})
}

func TestCloneIndependence(t *testing.T) {
	d := FromRows(2, []float64{1, 2, 3, 4})
	c := d.Clone()
	c.Rows[0] = 99
	if d.Rows[0] != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestSubset(t *testing.T) {
	d := FromRows(2, []float64{0, 0, 1, 1, 2, 2, 3, 3})
	s := d.Subset([]int{3, 1})
	if s.N() != 2 || s.Row(0)[0] != 3 || s.Row(1)[0] != 1 {
		t.Fatalf("subset wrong: %v", s.Rows)
	}
}

func TestSplitsPartitionExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		dim := 1 + rng.Intn(5)
		numSplits := 1 + rng.Intn(20)
		d := New(dim)
		d.Rows = make([]float64, n*dim)
		for i := range d.Rows {
			d.Rows[i] = rng.Float64()
		}
		splits := d.Splits(numSplits)
		total := 0
		expectedOffset := 0
		for _, s := range splits {
			if s.Offset != expectedOffset {
				return false
			}
			total += s.NumRows()
			expectedOffset += s.NumRows()
		}
		if total != n {
			return false
		}
		// Sizes differ by at most one (the paper's natural load balance).
		minSz, maxSz := n, 0
		for _, s := range splits {
			if s.NumRows() < minSz {
				minSz = s.NumRows()
			}
			if s.NumRows() > maxSz {
				maxSz = s.NumRows()
			}
		}
		return maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSplitsEdgeCases(t *testing.T) {
	d := FromRows(1, []float64{1, 2, 3})
	if got := len(d.Splits(10)); got != 3 {
		t.Errorf("more splits than rows: %d", got)
	}
	if got := len(d.Splits(0)); got != 1 {
		t.Errorf("zero splits: %d", got)
	}
	empty := New(2)
	if got := len(empty.Splits(4)); got != 0 {
		t.Errorf("empty dataset splits: %d", got)
	}
}

func TestNormalize(t *testing.T) {
	d := FromRows(2, []float64{
		10, 5,
		20, 5,
		30, 5,
	})
	d.Normalize()
	if d.Row(0)[0] != 0 || d.Row(2)[0] != 1 || d.Row(1)[0] != 0.5 {
		t.Fatalf("normalize col0 = %v", d.Rows)
	}
	// Constant attribute maps to 0.
	for i := 0; i < 3; i++ {
		if d.Row(i)[1] != 0 {
			t.Fatal("constant attribute not zeroed")
		}
	}
}

func TestClamp01(t *testing.T) {
	d := FromRows(1, []float64{-0.1, 0.5, 1.2})
	d.Clamp01()
	if d.Rows[0] != 0 || d.Rows[2] != 1 || d.Rows[1] != 0.5 {
		t.Fatalf("clamp = %v", d.Rows)
	}
}

func TestValidate(t *testing.T) {
	d := FromRows(2, []float64{1, 2})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	d.Rows[0] = math.NaN()
	if err := d.Validate(); err == nil {
		t.Fatal("NaN accepted")
	}
	d.Rows[0] = math.Inf(1)
	if err := d.Validate(); err == nil {
		t.Fatal("Inf accepted")
	}
	bad := &Dataset{Dim: 2, Rows: []float64{1, 2, 3}}
	if err := bad.Validate(); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

// TestValidateMark follows the mark that the rows passed Validate:
// Validate, ReadBinary and ReadCSV set it, a failed Validate, Normalize and
// Append clear it, Clone keeps it, and ValidateOnce scans only without it
// but always checks the shape.
func TestValidateMark(t *testing.T) {
	scanned := func(d *Dataset) bool {
		t.Helper()
		before := d.scans
		if err := d.ValidateOnce(); err != nil {
			t.Fatal(err)
		}
		return d.scans != before
	}
	d := FromRows(2, []float64{1, 2, 3, 4})
	if !scanned(d) || scanned(d) || scanned(d.Clone()) {
		t.Fatal("ValidateOnce does not scan exactly once")
	}
	d.Normalize()
	if !scanned(d) {
		t.Fatal("Normalize kept the mark")
	}
	d.Append([]float64{5, 6})
	if !scanned(d) {
		t.Fatal("Append kept the mark")
	}
	d.Rows[0] = math.NaN()
	if d.Validate() == nil || d.ValidateOnce() == nil {
		t.Fatal("a failed Validate kept the mark")
	}
	d.Rows[0] = 0
	if !scanned(d) {
		t.Fatal("ValidateOnce skipped rows whose last Validate failed")
	}
	d.Rows = d.Rows[:3]
	if d.ValidateOnce() == nil {
		t.Fatal("ValidateOnce skipped the shape check")
	}
	var buf bytes.Buffer
	if err := FromRows(2, []float64{1, 2}).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := ReadCSV(strings.NewReader("1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if scanned(read) || scanned(csv) {
		t.Fatal("a read data set is not marked")
	}
}

// validateLoop checks one value at a time: the oracle of Validate's
// error.
func validateLoop(d *Dataset) error {
	for i, v := range d.Rows {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset: non-finite value at flat index %d (row %d, col %d)", i, i/d.Dim, i%d.Dim)
		}
	}
	return nil
}

// TestValidateBlocksMatchLoop puts NaN, +Inf and −Inf at index 0, on each
// side of every block boundary and at the last value, alone and after a
// later one, and holds Validate's error to the per-value loop's. −0,
// subnormals and the largest finite values pass.
func TestValidateBlocksMatchLoop(t *testing.T) {
	const dim, n = 3, 3*validateBlock + 50
	rng := rand.New(rand.NewSource(3))
	rows := make([]float64, n*dim)
	edge := []float64{math.Copysign(0, -1), 0, 5e-324, -5e-324, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64}
	for i := range rows {
		rows[i] = rng.NormFloat64()
		if rng.Intn(4) == 0 {
			rows[i] = edge[rng.Intn(len(edge))]
		}
	}
	d := FromRows(dim, rows)
	if err := d.Validate(); err != nil {
		t.Fatalf("finite data rejected: %v", err)
	}
	at := []int{0, 1, len(rows) - 1}
	for b := validateBlock; b < len(rows); b += validateBlock {
		at = append(at, b-1, b, b+1)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, i := range at {
			for _, later := range []int{-1, min(i+validateBlock/2, len(rows)-1)} {
				d := FromRows(dim, slices.Clone(rows))
				d.Rows[i] = bad
				if later >= 0 {
					d.Rows[later] = bad
				}
				got, want := d.Validate(), validateLoop(d)
				if got == nil || got.Error() != want.Error() {
					t.Fatalf("%v at %d (and %d): error %v, want %v", bad, i, later, got, want)
				}
			}
		}
	}
}

func TestBounds(t *testing.T) {
	d := FromRows(2, []float64{1, 9, 5, 3, 2, 6})
	mins, maxs := d.Bounds()
	if mins[0] != 1 || maxs[0] != 5 || mins[1] != 3 || maxs[1] != 9 {
		t.Fatalf("bounds = %v %v", mins, maxs)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := New(7)
	for i := 0; i < 123; i++ {
		row := make([]float64, 7)
		for j := range row {
			row[j] = rng.Float64()
		}
		d.Append(row)
	}
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != 7 || got.N() != 123 {
		t.Fatalf("shape %dx%d", got.N(), got.Dim)
	}
	for i := range d.Rows {
		if got.Rows[i] != d.Rows[i] {
			t.Fatalf("value mismatch at %d", i)
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := FromRows(3, []float64{1, 2.5, 3, -4, 5e-3, 6})
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Rows {
		if got.Rows[i] != d.Rows[i] {
			t.Fatalf("csv mismatch at %d: %g vs %g", i, got.Rows[i], d.Rows[i])
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Fatal("ragged CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,x\n")); err == nil {
		t.Fatal("non-numeric CSV accepted")
	}
	d, err := ReadCSV(strings.NewReader("1,2\n\n3,4\n"))
	if err != nil || d.N() != 2 {
		t.Fatal("blank lines must be skipped")
	}
}

func BenchmarkValidate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := New(20)
	d.Rows = make([]float64, 20*(1<<16))
	for i := range d.Rows {
		d.Rows[i] = rng.Float64()
	}
	b.SetBytes(int64(8 * len(d.Rows)))
	b.ResetTimer()
	b.ReportAllocs()
	for range b.N {
		if err := d.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
