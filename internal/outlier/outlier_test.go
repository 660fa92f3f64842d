package outlier

import (
	"math"
	"math/rand"
	"testing"

	"p3cmr/internal/em"
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
)

// clusterWithOutliers builds one tight Gaussian cluster plus far-away
// outliers, returning splits and the index from which outliers start.
func clusterWithOutliers(nCluster, nOutliers, dim int, seed int64) ([]*mr.Split, int) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]float64, 0, (nCluster+nOutliers)*dim)
	for i := 0; i < nCluster; i++ {
		row := make([]float64, dim)
		for j := range row {
			row[j] = 0.5 + rng.NormFloat64()*0.02
		}
		rows = append(rows, row...)
	}
	for i := 0; i < nOutliers; i++ {
		row := make([]float64, dim)
		for j := range row {
			// Far from the cluster in every dimension.
			row[j] = 0.95 + rng.Float64()*0.04
		}
		rows = append(rows, row...)
	}
	n := nCluster + nOutliers
	per := n / 3
	var splits []*mr.Split
	for s := 0; s < 3; s++ {
		lo, hi := s*per, (s+1)*per
		if s == 2 {
			hi = n
		}
		splits = append(splits, &mr.Split{ID: s, Offset: lo, Dim: dim, Rows: rows[lo*dim : hi*dim]})
	}
	return splits, nCluster
}

func singleComponentModel(dim int, mean []float64, variance float64) *em.Model {
	cov := linalg.Identity(dim)
	linalg.Scale(cov, variance, cov)
	attrs := make([]int, dim)
	for i := range attrs {
		attrs[i] = i
	}
	return &em.Model{
		Attrs: attrs,
		Components: []*em.Component{{
			Weight: 1,
			Mean:   mean,
			Cov:    cov,
		}},
	}
}

func TestMethodString(t *testing.T) {
	if Naive.String() != "naive" || MVB.String() != "mvb" {
		t.Fatal("method names wrong")
	}
	if Method(9).String() == "" {
		t.Fatal("unknown method must still render")
	}
}

func TestDetectNaiveFlagsFarPoints(t *testing.T) {
	splits, outStart := clusterWithOutliers(500, 20, 3, 1)
	model := singleComponentModel(3, []float64{0.5, 0.5, 0.5}, 4e-4)
	labels, _, err := Detect(mr.Default(), splits, model, 520, Naive, 0.001, 0)
	if err != nil {
		t.Fatal(err)
	}
	flagged := 0
	for i := outStart; i < 520; i++ {
		if labels[i] == OutlierLabel {
			flagged++
		}
	}
	if flagged < 18 {
		t.Errorf("only %d/20 planted outliers flagged", flagged)
	}
	kept := 0
	for i := 0; i < outStart; i++ {
		if labels[i] == 0 {
			kept++
		}
	}
	if kept < 480 {
		t.Errorf("only %d/500 cluster members kept", kept)
	}
}

// TestMVBResistsMasking plants outliers heavy enough to corrupt the naive
// mean/covariance estimate; the MVB detector, estimating from the robust
// in-ball core, must flag more of them — the §4.2.2 motivation.
func TestMVBResistsMasking(t *testing.T) {
	splits, outStart := clusterWithOutliers(300, 90, 3, 2)
	n := 390
	// Model whose statistics were computed naively over ALL points —
	// inflated by the outliers (the masking effect).
	all := make([]float64, 0, n*3)
	for _, s := range splits {
		all = append(all, s.Rows...)
	}
	mu := linalg.Mean(all, 3)
	cov := linalg.Covariance(all, 3, mu)
	attrs := []int{0, 1, 2}
	model := &em.Model{Attrs: attrs, Components: []*em.Component{{Weight: 1, Mean: mu, Cov: cov}}}

	countFlagged := func(method Method) int {
		labels, _, err := Detect(mr.Default(), splits, model.Clone(), n, method, 0.001, 0)
		if err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for i := outStart; i < n; i++ {
			if labels[i] == OutlierLabel {
				flagged++
			}
		}
		return flagged
	}
	naive := countFlagged(Naive)
	mvb := countFlagged(MVB)
	t.Logf("naive flagged %d/90, MVB flagged %d/90", naive, mvb)
	if mvb <= naive {
		t.Errorf("MVB (%d) must beat the masked naive detector (%d)", mvb, naive)
	}
	if mvb < 80 {
		t.Errorf("MVB flagged only %d/90", mvb)
	}
}

func TestDetectTwoClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const dim = 2
	rows := make([]float64, 0, 400*dim)
	for i := 0; i < 200; i++ {
		rows = append(rows, 0.2+rng.NormFloat64()*0.02, 0.2+rng.NormFloat64()*0.02)
	}
	for i := 0; i < 200; i++ {
		rows = append(rows, 0.8+rng.NormFloat64()*0.02, 0.8+rng.NormFloat64()*0.02)
	}
	splits := []*mr.Split{{ID: 0, Offset: 0, Dim: dim, Rows: rows}}
	cov := linalg.Identity(dim)
	linalg.Scale(cov, 4e-4, cov)
	model := &em.Model{
		Attrs: []int{0, 1},
		Components: []*em.Component{
			{Weight: 0.5, Mean: []float64{0.2, 0.2}, Cov: cov.Clone()},
			{Weight: 0.5, Mean: []float64{0.8, 0.8}, Cov: cov.Clone()},
		},
	}
	labels, _, err := Detect(mr.Default(), splits, model, 400, MVB, 0.001, 0)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for i, l := range labels {
		want := 0
		if i >= 200 {
			want = 1
		}
		if l != want && l != OutlierLabel {
			wrong++
		}
	}
	if wrong > 0 {
		t.Errorf("%d points assigned to the wrong cluster", wrong)
	}
}

func TestDetectChiSquareThresholdMonotone(t *testing.T) {
	// A looser alpha (larger critical value... actually smaller alpha ⇒
	// larger critical value ⇒ fewer outliers). Verify monotonicity.
	splits, _ := clusterWithOutliers(400, 0, 2, 9)
	model := singleComponentModel(2, []float64{0.5, 0.5}, 4e-4)
	count := func(alpha float64) int {
		labels, _, err := Detect(mr.Default(), splits, model.Clone(), 400, Naive, alpha, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := 0
		for _, l := range labels {
			if l == OutlierLabel {
				c++
			}
		}
		return c
	}
	strict := count(0.05)  // flags ~5% of clean Gaussian data
	loose := count(0.0001) // flags ~0.01%
	if loose > strict {
		t.Errorf("alpha=0.0001 flagged %d > alpha=0.05 flagged %d", loose, strict)
	}
	frac := float64(strict) / 400
	if math.Abs(frac-0.05) > 0.04 {
		t.Errorf("alpha=0.05 flagged %.1f%%, want ≈5%%", frac*100)
	}
}

func init() {
	mr.RegisterJobImpl("outlier-bad-key", func([]byte) (mr.JobFuncs, error) {
		return mr.JobFuncs{
			NewMapper:    func() mr.Mapper { return badKeyMapper{} },
			TypedReducer: em.MergeMoments,
		}, nil
	})
}

// badKeyMapper emits one moments partial under a cluster key past the
// model's last cluster.
type badKeyMapper struct{}

func (badKeyMapper) Setup(*mr.TaskContext) error               { return nil }
func (badKeyMapper) Map(*mr.TaskContext, int, []float64) error { return nil }
func (badKeyMapper) Cleanup(ctx *mr.TaskContext) error {
	ctx.Emit("c2", linalg.NewMoments(1))
	return nil
}

// TestInCoreMomentsRejectsBadKey: a per-cluster key out of the model's
// range fails the phase instead of panicking on the index.
func TestInCoreMomentsRejectsBadKey(t *testing.T) {
	splits, _ := clusterWithOutliers(10, 0, 1, 1)
	_, err := inCoreMoments(mr.Default(), &mr.Job{Name: "bad-key", Splits: splits, Impl: "outlier-bad-key"}, 2, robustSpec{})
	if err == nil {
		t.Fatal("inCoreMoments accepted key c2 for a 2-cluster model")
	}
}

// TestInBallMomentsSkipBalllessCluster: the mvb-mean job emits no partial
// for a cluster without a ball, which reads back as an empty accumulator,
// and a cluster's W is the exact count of its in-ball points.
func TestInBallMomentsSkipBalllessCluster(t *testing.T) {
	splits, model, _ := twoClusters([]int{1, 63, 64, 65, 300}, 3, 8)
	if err := model.Prepare(); err != nil {
		t.Fatal(err)
	}
	center, radius := model.Components[0].Mean, 0.1
	sp := robustSpec{Model: em.SpecOf(model), Balls: []ballStat{{Center: center, Radius: radius, Count: 1}, {}}}
	job := func() *mr.Job { return &mr.Job{Name: "mvb-mean", Splits: splits, Impl: "mvb-mean"} }
	out, err := runModelJob(mr.Default(), job(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Pairs) != 1 || out.Pairs[0].Key != "c0" {
		t.Fatalf("mvb-mean wrote %d records, want one under c0", len(out.Pairs))
	}
	acc, err := inCoreMoments(mr.Default(), job(), 2, sp)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	x, sc1, sc2 := make([]float64, 3), make([]float64, 3), make([]float64, 3)
	for _, s := range splits {
		for r := 0; r < s.NumRows(); r++ {
			x = model.Project(x, s.Row(r))
			s2 := 0.0
			for j, v := range x {
				s2 += (v - center[j]) * (v - center[j])
			}
			if model.MostLikely(x, sc1, sc2) == 0 && math.Sqrt(s2) <= radius {
				count++
			}
		}
	}
	if count == 0 || acc[0].W != float64(count) {
		t.Errorf("cluster 0: W = %v, want its %d in-ball points", acc[0].W, count)
	}
	if acc[1].W != 0 || len(acc[1].Mean) != 3 {
		t.Errorf("ball-less cluster 1: %+v, want an empty 3-dimensional accumulator", acc[1])
	}
}
