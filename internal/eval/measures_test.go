package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustSC(t *testing.T, n, dim int, clusters []*Cluster) *SubspaceClustering {
	t.Helper()
	sc, err := NewSubspaceClustering(n, dim, clusters)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func seqInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestNewSubspaceClusteringNormalizes(t *testing.T) {
	sc := mustSC(t, 10, 3, []*Cluster{
		{Objects: []int{3, 1, 3, 2}, Attrs: []int{2, 0, 2}},
	})
	c := sc.Clusters[0]
	if len(c.Objects) != 3 || c.Objects[0] != 1 {
		t.Fatalf("objects = %v", c.Objects)
	}
	if len(c.Attrs) != 2 || c.Attrs[0] != 0 {
		t.Fatalf("attrs = %v", c.Attrs)
	}
	if c.MicroObjects() != 6 {
		t.Fatalf("micro = %d", c.MicroObjects())
	}
}

func TestNewSubspaceClusteringRejectsOutOfRange(t *testing.T) {
	if _, err := NewSubspaceClustering(5, 2, []*Cluster{{Objects: []int{5}, Attrs: []int{0}}}); err == nil {
		t.Fatal("object out of range accepted")
	}
	if _, err := NewSubspaceClustering(5, 2, []*Cluster{{Objects: []int{0}, Attrs: []int{2}}}); err == nil {
		t.Fatal("attribute out of range accepted")
	}
}

func TestFromLabels(t *testing.T) {
	labels := []int{0, 1, -1, 0, 1}
	sc, err := FromLabels(5, 4, labels, [][]int{{0, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Clusters[0].Objects) != 2 || len(sc.Clusters[1].Objects) != 2 {
		t.Fatal("label grouping wrong")
	}
	if _, err := FromLabels(3, 2, []int{0}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FromLabels(2, 2, []int{5, 0}, [][]int{{0}}); err == nil {
		t.Fatal("label exceeding clusters accepted")
	}
}

// --- Perfect and degenerate cases for all measures ------------------------------

func TestMeasuresPerfectMatch(t *testing.T) {
	truth := mustSC(t, 100, 10, []*Cluster{
		{Objects: seqInts(0, 50), Attrs: []int{0, 1, 2}},
		{Objects: seqInts(50, 100), Attrs: []int{3, 4}},
	})
	found := mustSC(t, 100, 10, []*Cluster{
		{Objects: seqInts(50, 100), Attrs: []int{3, 4}},
		{Objects: seqInts(0, 50), Attrs: []int{0, 1, 2}},
	})
	for name, m := range map[string]float64{
		"E4SC": E4SC(found, truth),
		"F1":   F1(found, truth),
		"RNIA": RNIA(found, truth),
		"CE":   CE(found, truth),
	} {
		if math.Abs(m-1) > 1e-12 {
			t.Errorf("%s = %g on a perfect match", name, m)
		}
	}
}

func TestMeasuresEmptyCases(t *testing.T) {
	empty := mustSC(t, 10, 2, nil)
	some := mustSC(t, 10, 2, []*Cluster{{Objects: []int{0, 1}, Attrs: []int{0}}})
	if E4SC(empty, empty) != 1 || RNIA(empty, empty) != 1 || CE(empty, empty) != 1 || F1(empty, empty) != 1 {
		t.Error("both-empty must be perfect")
	}
	if E4SC(empty, some) != 0 || CE(empty, some) != 0 || F1(empty, some) != 0 {
		t.Error("empty found vs non-empty truth must be 0")
	}
	if RNIA(empty, some) != 0 {
		t.Error("RNIA empty vs non-empty must be 0")
	}
}

// TestE4SCDetectsWrongSubspace: same objects, wrong attributes must score
// below the same objects with right attributes — the paper's reason to
// prefer E4SC over F1 (§7.2).
func TestE4SCDetectsWrongSubspace(t *testing.T) {
	truth := mustSC(t, 100, 10, []*Cluster{{Objects: seqInts(0, 50), Attrs: []int{0, 1}}})
	right := mustSC(t, 100, 10, []*Cluster{{Objects: seqInts(0, 50), Attrs: []int{0, 1}}})
	wrong := mustSC(t, 100, 10, []*Cluster{{Objects: seqInts(0, 50), Attrs: []int{8, 9}}})
	if E4SC(right, truth) != 1 {
		t.Fatal("right subspace must be perfect")
	}
	if E4SC(wrong, truth) != 0 {
		t.Fatalf("disjoint subspace scored %g", E4SC(wrong, truth))
	}
	// F1 cannot see the difference.
	if F1(wrong, truth) != 1 {
		t.Fatalf("object F1 should ignore subspaces, got %g", F1(wrong, truth))
	}
}

// TestE4SCDetectsMerge: merging two clusters into one must be punished.
func TestE4SCDetectsMerge(t *testing.T) {
	truth := mustSC(t, 100, 6, []*Cluster{
		{Objects: seqInts(0, 50), Attrs: []int{0, 1}},
		{Objects: seqInts(50, 100), Attrs: []int{0, 1}},
	})
	merged := mustSC(t, 100, 6, []*Cluster{
		{Objects: seqInts(0, 100), Attrs: []int{0, 1}},
	})
	s := E4SC(merged, truth)
	if s >= 0.9 {
		t.Fatalf("merge scored %g, must be punished", s)
	}
	if s <= 0 {
		t.Fatalf("merge scored %g, should be partial", s)
	}
}

// TestE4SCDetectsWrongAssignment: moving half of a cluster's objects into
// another lowers the score.
func TestE4SCDetectsWrongAssignment(t *testing.T) {
	truth := mustSC(t, 100, 6, []*Cluster{
		{Objects: seqInts(0, 50), Attrs: []int{0, 1}},
		{Objects: seqInts(50, 100), Attrs: []int{2, 3}},
	})
	shifted := mustSC(t, 100, 6, []*Cluster{
		{Objects: seqInts(0, 25), Attrs: []int{0, 1}},
		{Objects: seqInts(25, 100), Attrs: []int{2, 3}},
	})
	if s := E4SC(shifted, truth); s >= 0.95 {
		t.Fatalf("wrong assignment scored %g", s)
	}
}

func TestRNIAPartialOverlap(t *testing.T) {
	truth := mustSC(t, 10, 4, []*Cluster{{Objects: []int{0, 1}, Attrs: []int{0, 1}}})
	found := mustSC(t, 10, 4, []*Cluster{{Objects: []int{0, 1}, Attrs: []int{0}}})
	// Intersection 2 cells, union 4 cells.
	if got := RNIA(found, truth); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("RNIA = %g, want 0.5", got)
	}
}

func TestRNIAMultisetSemantics(t *testing.T) {
	// Overlapping found clusters double-count cells in the union.
	truth := mustSC(t, 4, 2, []*Cluster{{Objects: []int{0, 1}, Attrs: []int{0}}})
	found := mustSC(t, 4, 2, []*Cluster{
		{Objects: []int{0, 1}, Attrs: []int{0}},
		{Objects: []int{0, 1}, Attrs: []int{0}},
	})
	// I = 2 (each truth cell matched once), U = 4 (found multiplicity 2).
	if got := RNIA(found, truth); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("RNIA multiset = %g, want 0.5", got)
	}
}

func TestCEPunishesSplitsHarderThanRNIA(t *testing.T) {
	truth := mustSC(t, 100, 4, []*Cluster{{Objects: seqInts(0, 100), Attrs: []int{0, 1}}})
	split := mustSC(t, 100, 4, []*Cluster{
		{Objects: seqInts(0, 50), Attrs: []int{0, 1}},
		{Objects: seqInts(50, 100), Attrs: []int{0, 1}},
	})
	ce := CE(split, truth)
	rnia := RNIA(split, truth)
	if ce >= rnia {
		t.Fatalf("CE (%g) must punish the split harder than RNIA (%g)", ce, rnia)
	}
	if math.Abs(ce-0.5) > 1e-12 {
		t.Fatalf("CE = %g, want 0.5 (only one fragment matched)", ce)
	}
	if math.Abs(rnia-1) > 1e-12 {
		t.Fatalf("RNIA = %g, want 1 (cells identical)", rnia)
	}
}

func TestMeasuresInUnitRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, dim := 30, 5
		mk := func() *SubspaceClustering {
			k := rng.Intn(4)
			var cs []*Cluster
			for i := 0; i < k; i++ {
				var objs, attrs []int
				for o := 0; o < n; o++ {
					if rng.Float64() < 0.3 {
						objs = append(objs, o)
					}
				}
				for a := 0; a < dim; a++ {
					if rng.Float64() < 0.5 {
						attrs = append(attrs, a)
					}
				}
				if len(objs) == 0 || len(attrs) == 0 {
					continue
				}
				cs = append(cs, &Cluster{Objects: objs, Attrs: attrs})
			}
			sc, _ := NewSubspaceClustering(n, dim, cs)
			return sc
		}
		a, b := mk(), mk()
		for _, v := range []float64{E4SC(a, b), F1(a, b), RNIA(a, b), CE(a, b)} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		// Symmetric measures: E4SC, RNIA, CE are symmetric by construction.
		if math.Abs(E4SC(a, b)-E4SC(b, a)) > 1e-12 {
			return false
		}
		if math.Abs(RNIA(a, b)-RNIA(b, a)) > 1e-12 {
			return false
		}
		if math.Abs(CE(a, b)-CE(b, a)) > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAccuracy(t *testing.T) {
	// Two clusters mapping cleanly to two classes.
	pred := []int{0, 0, 0, 1, 1, 1}
	classes := []int{1, 1, 1, 0, 0, 0}
	if got := Accuracy(pred, classes); got != 1 {
		t.Fatalf("accuracy = %g", got)
	}
	// One mislabeled point.
	classes[0] = 0
	if got := Accuracy(pred, classes); math.Abs(got-5.0/6) > 1e-12 {
		t.Fatalf("accuracy = %g, want 5/6", got)
	}
	// Outliers (-1) form their own group.
	pred = []int{-1, -1, 0, 0}
	classes = []int{1, 1, 0, 0}
	if got := Accuracy(pred, classes); got != 1 {
		t.Fatalf("outlier-group accuracy = %g", got)
	}
	if Accuracy(nil, nil) != 0 || Accuracy([]int{0}, []int{0, 1}) != 0 {
		t.Fatal("degenerate accuracy must be 0")
	}
}
