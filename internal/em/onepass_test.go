package em

import (
	"math"
	"math/rand"
	"testing"

	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
)

// maxRelErr is the largest |got−want| over the entries, relative to the
// largest |want|.
func maxRelErr(got, want []float64) float64 {
	scale, worst := 0.0, 0.0
	for i := range want {
		scale = math.Max(scale, math.Abs(want[i]))
		worst = math.Max(worst, math.Abs(got[i]-want[i]))
	}
	if scale == 0 {
		return worst
	}
	return worst / scale
}

// compareModels reports every component whose weight, mean or covariance
// differs from want by more than tol (relative).
func compareModels(t *testing.T, label string, got, want *Model, tol float64) {
	t.Helper()
	for i, w := range want.Components {
		g := got.Components[i]
		if e := maxRelErr([]float64{g.Weight}, []float64{w.Weight}); e > tol {
			t.Errorf("%s: component %d weight %g, want %g (rel err %g)", label, i, g.Weight, w.Weight, e)
		}
		if e := maxRelErr(g.Mean, w.Mean); e > tol {
			t.Errorf("%s: component %d mean %v, want %v (rel err %g)", label, i, g.Mean, w.Mean, e)
		}
		if e := maxRelErr(g.Cov.Data, w.Cov.Data); e > tol {
			t.Errorf("%s: component %d covariance rel err %g", label, i, e)
		}
	}
}

// cutSplits cuts row-major rows into parts contiguous splits.
func cutSplits(rows []float64, dim, parts int) []*mr.Split {
	n := len(rows) / dim
	splits := make([]*mr.Split, 0, parts)
	for s := 0; s < parts; s++ {
		lo, hi := s*n/parts, (s+1)*n/parts
		splits = append(splits, &mr.Split{ID: s, Offset: lo, Dim: dim, Rows: rows[lo*dim : hi*dim]})
	}
	return splits
}

// TestFitMRInvariantToRowOrderAndSplits: EM sees a set of points, not a
// sequence — permuting the rows and cutting them into 1, 4 or 16 splits
// moves only the merge order of the per-split moments, so the fit keeps
// its iteration count and its parameters to 1e-9.
func TestFitMRInvariantToRowOrderAndSplits(t *testing.T) {
	const dim = 5
	var rows []float64
	for _, s := range twoBlobs(1200, dim, [2]int{0, 3}, 11) {
		rows = append(rows, s.Rows...)
	}
	n := len(rows) / dim
	permuted := make([]float64, 0, len(rows))
	for _, i := range rand.New(rand.NewSource(4)).Perm(n) {
		permuted = append(permuted, rows[i*dim:(i+1)*dim]...)
	}

	fit := func(data []float64, parts int) (*Model, int) {
		model := initialModel([]int{0, 3}, [][]float64{{0.4, 0.4}, {0.6, 0.6}})
		iters, err := FitMR(mr.Default(), cutSplits(data, dim, parts), model, FitOptions{MaxIterations: 20, Tolerance: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		return model, iters
	}
	ref, refIters := fit(rows, 4)
	if refIters < 3 {
		t.Fatalf("reference fit converged after %d iterations; want a multi-iteration fit", refIters)
	}
	for _, data := range []struct {
		name string
		rows []float64
	}{{"original", rows}, {"permuted", permuted}} {
		for _, parts := range []int{1, 4, 16} {
			got, iters := fit(data.rows, parts)
			if iters != refIters {
				t.Errorf("%s/%d splits: %d iterations, reference %d", data.name, parts, iters, refIters)
			}
			compareModels(t, data.name, got, ref, 1e-9)
		}
	}
}

// serialEMStep is the textbook E/M step on one machine in two passes: the
// E-step's responsibilities, then the §5.4 weighted means and covariances
// from the two-pass linalg references.
func serialEMStep(t *testing.T, splits []*mr.Split, model *Model) *Model {
	t.Helper()
	if err := model.Prepare(); err != nil {
		t.Fatal(err)
	}
	k, d := model.K(), len(model.Attrs)
	var rows []float64
	for _, s := range splits {
		for i := 0; i < s.NumRows(); i++ {
			rows = append(rows, model.Project(nil, s.Row(i))...)
		}
	}
	n := len(rows) / d
	resp := make([][]float64, k)
	for c := range resp {
		resp[c] = make([]float64, n)
	}
	r := make([]float64, k)
	for i := 0; i < n; i++ {
		model.Responsibilities(r, rows[i*d:(i+1)*d], nil, nil)
		for c := range r {
			resp[c][i] = r[c]
		}
	}
	out := model.Clone()
	for c, comp := range out.Components {
		var w float64
		comp.Mean, w, comp.Cov = twoPassMoments(rows, d, resp[c])
		comp.Weight = w / float64(n)
	}
	return out
}

// twoPassMoments is §5.4's M-step for one component in two passes over the
// rows: the weighted mean lC/wC, then the unbiased weighted covariance
// wC/(wC² − wC2)·Σ r_i (x_i−µ)(x_i−µ)ᵀ.
func twoPassMoments(rows []float64, d int, r []float64) (mean []float64, w float64, cov *linalg.Matrix) {
	mean = make([]float64, d)
	var w2 float64
	for i, ri := range r {
		w += ri
		w2 += ri * ri
		for j := range mean {
			mean[j] += ri * rows[i*d+j]
		}
	}
	for j := range mean {
		mean[j] /= w
	}
	cov = linalg.NewMatrix(d, d)
	for i, ri := range r {
		for a := 0; a < d; a++ {
			da := ri * (rows[i*d+a] - mean[a])
			for b := a; b < d; b++ {
				cov.Data[a*d+b] += da * (rows[i*d+b] - mean[b])
			}
		}
	}
	f := w / (w*w - w2)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			cov.Data[a*d+b] *= f
			cov.Data[b*d+a] = cov.Data[a*d+b]
		}
	}
	return mean, w, cov
}

// TestFusedIterationMatchesSerialTwoPass cross-checks one MapReduce
// iteration — responsibilities computed once, moments accumulated in one
// pass per split and merged — against the serial two-pass E/M step.
func TestFusedIterationMatchesSerialTwoPass(t *testing.T) {
	splits := twoBlobs(800, 6, [2]int{1, 4}, 3)
	model := initialModel([]int{1, 4}, [][]float64{{0.4, 0.4}, {0.6, 0.6}})
	want := serialEMStep(t, splits, model.Clone())
	iters, err := FitMR(mr.Default(), splits, model, FitOptions{MaxIterations: 1})
	if err != nil || iters != 1 {
		t.Fatalf("FitMR: iters=%d err=%v", iters, err)
	}
	compareModels(t, "fused vs serial", model, want, 1e-12)
}
