package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// writeBaseline writes a one-benchmark baseline file and returns its path.
func writeBaseline(t *testing.T, name string, ns float64, allocs int64) string {
	t.Helper()
	b, err := json.Marshal(map[string]Result{"BenchmarkX": {Iterations: 1, NsPerOp: ns, BytesPerOp: 0, AllocsPerOp: allocs}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffNsFloorAndAllocGate pins the two regression rules: an ns/op
// increase must exceed both the fractional threshold and the absolute
// floor, while the allocs/op gate applies at any speed.
func TestDiffNsFloorAndAllocGate(t *testing.T) {
	cases := []struct {
		name               string
		oldNs, newNs       float64
		oldAlloc, newAlloc int64
		want               int
	}{
		{"sub-floor ns/op jump is noise", 305, 1000, 4, 4, 0},
		{"jump just under the floor", 305, 305 + nsFloor, 4, 4, 0},
		{"large ns/op regression", 100_000, 200_000, 4, 4, 1},
		{"within fractional threshold", 100_000, 170_000, 4, 4, 0},
		{"allocs/op regression on a fast benchmark", 305, 305, 4, 8, 1},
		{"no change", 305, 305, 4, 4, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			oldPath := writeBaseline(t, "old.json", c.oldNs, c.oldAlloc)
			newPath := writeBaseline(t, "new.json", c.newNs, c.newAlloc)
			if got := runDiff(oldPath, newPath, 0.75, 0.25); got != c.want {
				t.Errorf("runDiff = %d, want %d", got, c.want)
			}
		})
	}
}

// TestMedianOfRepeatedRuns pins the aggregation of a benchmark measured on
// several lines: the sample of median ns/op.
func TestMedianOfRepeatedRuns(t *testing.T) {
	rs := []Result{
		{Iterations: 1, NsPerOp: 900, BytesPerOp: 64, AllocsPerOp: 3},
		{Iterations: 1, NsPerOp: 100, BytesPerOp: 80, AllocsPerOp: 2},
		{Iterations: 1, NsPerOp: 300, BytesPerOp: 72, AllocsPerOp: 4},
		{Iterations: 1, NsPerOp: 200, BytesPerOp: 96, AllocsPerOp: 2},
		{Iterations: 1, NsPerOp: 5000, BytesPerOp: 64, AllocsPerOp: 9},
	}
	want := rs[2]
	if got := medianResult(rs); got != want {
		t.Fatalf("median = %+v, want %+v", got, want)
	}
	if got := medianResult(rs[:2]); got.NsPerOp != 100 {
		t.Fatalf("even count: ns/op %g, want the lower middle 100", got.NsPerOp)
	}
}
