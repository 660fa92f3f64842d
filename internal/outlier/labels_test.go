package outlier

import (
	"fmt"
	"math/rand"
	"testing"

	"p3cmr/internal/em"
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
)

// twoClusters builds two Gaussian clusters in dim dimensions plus uniform
// noise, cut into splits of the given sizes, and the two-component model
// that fits them.
func twoClusters(sizes []int, dim int, seed int64) ([]*mr.Split, *em.Model, int) {
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for _, sz := range sizes {
		n += sz
	}
	centres := [][]float64{make([]float64, dim), make([]float64, dim)}
	for j := 0; j < dim; j++ {
		centres[0][j], centres[1][j] = 0.3, 0.7
	}
	rows := make([]float64, n*dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			switch i % 5 {
			case 4:
				rows[i*dim+j] = rng.Float64()
			default:
				rows[i*dim+j] = centres[i%2][j] + rng.NormFloat64()*0.05
			}
		}
	}
	var splits []*mr.Split
	off := 0
	for id, sz := range sizes {
		splits = append(splits, &mr.Split{ID: id, Offset: off, Dim: dim, Rows: rows[off*dim : (off+sz)*dim]})
		off += sz
	}
	model := &em.Model{}
	for j := 0; j < dim; j++ {
		model.Attrs = append(model.Attrs, j)
	}
	for _, c := range centres {
		cov := linalg.Identity(dim)
		linalg.Scale(cov, 0.0025, cov)
		model.Components = append(model.Components, &em.Component{Weight: 0.5, Mean: c, Cov: cov})
	}
	return splits, model, n
}

// TestDetectLabelsMatchOracle pins Detect's split columns to a per-point
// oracle: the most likely component under the assignment model, flagged
// an outlier when its squared Mahalanobis distance under the test model
// exceeds the critical value.
func TestDetectLabelsMatchOracle(t *testing.T) {
	splits, model, n := twoClusters([]int{1, 63, 64, 65, 4097}, 3, 5)
	for _, method := range []Method{Naive, MVB, MVE} {
		t.Run(method.String(), func(t *testing.T) {
			labels, sp, err := Detect(mr.Default(), splits, model.Clone(), n, method, 0.001, 0)
			if err != nil {
				t.Fatal(err)
			}
			assign, err := sp.Assign.Model()
			if err != nil {
				t.Fatal(err)
			}
			test, err := sp.Test.Model()
			if err != nil {
				t.Fatal(err)
			}
			d := len(assign.Attrs)
			x, sc1, sc2 := make([]float64, d), make([]float64, d), make([]float64, d)
			outliers := 0
			for _, s := range splits {
				for r := 0; r < s.NumRows(); r++ {
					assign.Project(x, s.Row(r))
					want := assign.MostLikely(x, sc1, sc2)
					if dist := test.Mahalanobis(want, x, sc1, sc2); dist*dist > sp.Crit {
						want = OutlierLabel
						outliers++
					}
					if got := labels[s.Offset+r]; got != want {
						t.Fatalf("point %d: label %d, oracle %d", s.Offset+r, got, want)
					}
				}
			}
			if outliers == 0 || outliers == n {
				t.Fatalf("%d of %d points flagged: the oracle exercised one branch only", outliers, n)
			}
		})
	}
}

// TestLabelerSharesDetectColumn checks that a later job's Labeler, built
// from the Spec after a gob round trip inside the job's own spec, finds
// the column outlier-detect built in the split's memo instead of
// rebuilding it.
func TestLabelerSharesDetectColumn(t *testing.T) {
	splits, model, n := twoClusters([]int{300, 200}, 2, 9)
	if _, _, err := Detect(mr.Default(), splits, model, n, Naive, 0.001, 0); err != nil {
		t.Fatal(err)
	}
	_, sp, err := Detect(mr.Default(), splits, model, n, MVB, 0.001, 0)
	if err != nil {
		t.Fatal(err)
	}
	type consumerSpec struct {
		K    int
		Full *Spec
	}
	blob, err := mr.EncodeSpec(consumerSpec{K: 2, Full: &sp})
	if err != nil {
		t.Fatal(err)
	}
	var got consumerSpec
	if err := mr.DecodeSpec(blob, &got); err != nil {
		t.Fatal(err)
	}
	l, err := got.Full.Labeler()
	if err != nil {
		t.Fatal(err)
	}
	first, err := sp.Labeler()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range splits {
		a, b := first(s), l(s)
		if &a[0] != &b[0] {
			t.Fatalf("split %d: the round-tripped spec built a second column", s.ID)
		}
	}
}

// TestCollectLabelsRejectsBadRecords feeds the label assembly per-split
// records that name no split, repeat one, miss one, or do not hold one
// label per row: each is an error, never a panic or a silent slot.
func TestCollectLabelsRejectsBadRecords(t *testing.T) {
	splits := []*mr.Split{{ID: 0, Offset: 0, Dim: 1, Rows: make([]float64, 3)}, {ID: 1, Offset: 3, Dim: 1, Rows: make([]float64, 2)}}
	good := func() []mr.Pair {
		return []mr.Pair{{Key: "s0", Value: []int64{0, -1, 1}}, {Key: "s1", Value: []int64{1, 0}}}
	}
	labels, err := collectLabels(&mr.Output{Pairs: good()}, splits, 5)
	if err != nil || fmt.Sprint(labels) != "[0 -1 1 1 0]" {
		t.Fatalf("good records: %v, %v", labels, err)
	}
	cases := []struct {
		name   string
		mutate func([]mr.Pair) []mr.Pair
	}{
		{"key out of range", func(p []mr.Pair) []mr.Pair { p[1].Key = "s2"; return p }},
		{"negative key", func(p []mr.Pair) []mr.Pair { p[1].Key = "s-1"; return p }},
		{"trailing garbage", func(p []mr.Pair) []mr.Pair { p[1].Key = "s1x"; return p }},
		{"short column", func(p []mr.Pair) []mr.Pair { p[0].Value = []int64{0, 1}; return p }},
		{"long column", func(p []mr.Pair) []mr.Pair { p[1].Value = []int64{0, 1, 1}; return p }},
		{"wrong type", func(p []mr.Pair) []mr.Pair { p[1].Value = []int32{0, 1}; return p }},
		{"repeated split", func(p []mr.Pair) []mr.Pair { return append(p, p[0]) }},
		{"missing split", func(p []mr.Pair) []mr.Pair { return p[:1] }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := collectLabels(&mr.Output{Pairs: c.mutate(good())}, splits, 5); err == nil {
				t.Fatal("bad records accepted")
			}
		})
	}
}
