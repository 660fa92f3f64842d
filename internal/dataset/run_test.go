package dataset_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"p3cmr/internal/core"
	"p3cmr/internal/dataset"
	"p3cmr/internal/mr"
)

// TestRunRejectsNaNInMemory hands core.Run an in-memory data set with a NaN
// that no reader has checked: the run fails with Validate's error.
func TestRunRejectsNaNInMemory(t *testing.T) {
	data := dataset.FromRows(2, []float64{0.1, 0.2, 0.3, math.NaN()})
	_, err := core.Run(mr.Default(), data, core.NewParams())
	const want = "dataset: non-finite value at flat index 3 (row 1, col 1)"
	if err == nil || err.Error() != want {
		t.Fatalf("core.Run error %v, want %q", err, want)
	}
}

// TestRunScansReadDataOnce reads a data set with ReadBinary and runs the
// pipeline on it: the values are scanned once, by the read. Normalize
// clears the mark, so the next run scans again.
func TestRunScansReadDataOnce(t *testing.T) {
	gen, _, err := dataset.Generate(dataset.GenConfig{N: 2000, Dim: 6, Clusters: 2, NoiseFraction: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gen.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := dataset.ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(mr.Default(), data, core.NewParams()); err != nil {
		t.Fatal(err)
	}
	if got := dataset.ValueScans(data); got != 1 {
		t.Fatalf("read and run scanned the values %d times, want 1", got)
	}
	data.Normalize()
	if _, err := core.Run(mr.Default(), data, core.NewParams()); err != nil {
		t.Fatal(err)
	}
	if got := dataset.ValueScans(data); got != 2 {
		t.Fatalf("a run after Normalize brought the scans to %d, want 2", got)
	}
}
