package experiments

import (
	"bytes"
	"strings"
	"testing"

	"p3cmr"
)

// miniScale keeps the shape-check tests fast.
func miniScale() Scale {
	return Scale{
		Sizes:         []int{800, 3000},
		Dim:           12,
		NoiseLevels:   []float64{0.10},
		ClusterCounts: []int{3},
		Seed:          2,
		Reducers:      112,
	}
}

func TestFigure1Shape(t *testing.T) {
	rows := Figure1(nil)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Power grows monotonically (up to tiny numeric wiggle) and approaches 1.
	for i := 1; i < len(rows); i++ {
		if rows[i].Probability < rows[i-1].Probability-0.02 {
			t.Errorf("power not growing at µ=%g: %g < %g", rows[i].Mu, rows[i].Probability, rows[i-1].Probability)
		}
	}
	last := rows[len(rows)-1]
	if last.Probability < 0.99 {
		t.Errorf("power at µ=%g is %g, want ≈1", last.Mu, last.Probability)
	}
	first := rows[0]
	if first.Probability > 0.5 {
		t.Errorf("power at µ=%g is %g, want small", first.Mu, first.Probability)
	}
	var buf bytes.Buffer
	RenderFigure1(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Error("render missing title")
	}
}

func TestFigure4Shape(t *testing.T) {
	rows, err := Figure4(miniScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // 1 noise × 1 cluster count × 2 sizes
		t.Fatalf("rows = %d", len(rows))
	}
	mvbWins := 0
	for _, r := range rows {
		t.Logf("n=%d noise=%g k=%d naive=%.3f mvb=%.3f", r.Size, r.Noise, r.Clusters, r.E4SCNaive, r.E4SCMVB)
		if r.E4SCMVB >= r.E4SCNaive-0.05 {
			mvbWins++
		}
		if r.E4SCMVB <= 0 || r.E4SCMVB > 1 {
			t.Errorf("E4SC out of range: %g", r.E4SCMVB)
		}
	}
	// Paper: MVB at least matches naive in all but isolated cases.
	if mvbWins < len(rows)-1 {
		t.Errorf("MVB competitive in only %d/%d configs", mvbWins, len(rows))
	}
	var buf bytes.Buffer
	RenderFigure4(&buf, rows)
	if !strings.Contains(buf.String(), "MVB") {
		t.Error("render missing series")
	}
}

func TestFigure5Shape(t *testing.T) {
	rows, err := Figure5(miniScale(), []int{3000}, []float64{1e-40, 1e-5, 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("th=%.0e poisson=%d combined=%d poissonF=%d combinedF=%d",
			r.Threshold, r.PoissonNoFilter, r.CombinedNoFilter, r.PoissonFiltered, r.CombinedFiltered)
		// Combined never exceeds Poisson (it is a strictly stronger test).
		if r.CombinedNoFilter > r.PoissonNoFilter {
			t.Errorf("combined %d > poisson %d at th=%g", r.CombinedNoFilter, r.PoissonNoFilter, r.Threshold)
		}
		// Filtering never increases the count.
		if r.PoissonFiltered > r.PoissonNoFilter || r.CombinedFiltered > r.CombinedNoFilter {
			t.Error("redundancy filter increased the core count")
		}
	}
	// At the loosest threshold the pure Poisson test overestimates relative
	// to the filtered Combined count (the paper's headline observation).
	loosest := rows[len(rows)-1]
	if loosest.PoissonNoFilter < loosest.CombinedFiltered {
		t.Errorf("no Poisson overestimation visible: %d vs %d", loosest.PoissonNoFilter, loosest.CombinedFiltered)
	}
	var buf bytes.Buffer
	RenderFigure5(&buf, rows)
	if !strings.Contains(buf.String(), "threshold") {
		t.Error("render missing header")
	}
}

func TestFigure6Shape(t *testing.T) {
	rows, err := Figure6(miniScale(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("n=%d scores=%v", r.Size, r.Scores)
		for v, s := range r.Scores {
			if s < 0 || s > 1 {
				t.Errorf("%s E4SC out of range: %g", v, s)
			}
		}
		// MR (Light) must be competitive: the paper's best series.
		if r.Scores[p3cmr.P3CPlusMRLight] < 0.5 {
			t.Errorf("MR (Light) E4SC = %.3f at n=%d", r.Scores[p3cmr.P3CPlusMRLight], r.Size)
		}
	}
	var buf bytes.Buffer
	RenderFigure6(&buf, rows)
	if !strings.Contains(buf.String(), "MR (Light)") {
		t.Error("render missing series")
	}
}

func TestFigure7Shape(t *testing.T) {
	rows, err := Figure7(miniScale(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("n=%d seconds=%v", r.Size, r.Seconds)
		for v, s := range r.Seconds {
			if s <= 0 {
				t.Errorf("%s charged nothing", v)
			}
		}
		// MR (MVB) runs the most jobs and must be the slowest MR variant.
		if r.Seconds[p3cmr.P3CPlusMR] < r.Seconds[p3cmr.P3CPlusMRLight] {
			t.Errorf("MR (MVB) %.1fs cheaper than MR (Light) %.1fs", r.Seconds[p3cmr.P3CPlusMR], r.Seconds[p3cmr.P3CPlusMRLight])
		}
		if r.Seconds[p3cmr.P3CPlusMR] < r.Seconds[p3cmr.P3CPlusMRNaive] {
			t.Errorf("MR (MVB) %.1fs cheaper than MR (Naive) %.1fs", r.Seconds[p3cmr.P3CPlusMR], r.Seconds[p3cmr.P3CPlusMRNaive])
		}
	}
	var buf bytes.Buffer
	RenderFigure7(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 7") {
		t.Error("render missing title")
	}
}

func TestBillionShape(t *testing.T) {
	row, err := Billion(miniScale(), 12000, 600)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("BoW=%.1fs MR=%.1fs speedup=%.2fx", row.BoWLightSeconds, row.MRLightSeconds, row.SpeedupMRvsBoW)
	if row.BoWLightSeconds <= 0 || row.MRLightSeconds <= 0 {
		t.Fatal("costs not charged")
	}
	// The paper's headline: MR (Light) beats BoW (Light) at the largest
	// scale.
	if row.SpeedupMRvsBoW <= 1 {
		t.Errorf("no MR-Light speedup at scale: %.2fx", row.SpeedupMRvsBoW)
	}
	var buf bytes.Buffer
	RenderBillion(&buf, row)
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("render missing speedup row")
	}
}

func TestZooShape(t *testing.T) {
	rows, err := Zoo(miniScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byName := map[string]ZooRow{}
	for _, r := range rows {
		byName[r.Name] = r
		t.Logf("%-18s clusters=%d E4SC=%.3f F1=%.3f", r.Name, r.Clusters, r.E4SC, r.F1)
		for _, v := range []float64{r.E4SC, r.F1, r.RNIA, r.CE} {
			if v < 0 || v > 1 {
				t.Errorf("%s: measure out of range", r.Name)
			}
		}
	}
	// The §2 prediction: the P3C+ family leads on the subspace-aware
	// measure, even though PROCLUS and DOC were given the true k.
	plus := byName["P3C+-MR-Light"].E4SC
	if plus < byName["PROCLUS (true k)"].E4SC-0.1 {
		t.Errorf("P3C+ (%.3f) well below PROCLUS (%.3f)", plus, byName["PROCLUS (true k)"].E4SC)
	}
	if plus < byName["DOC (true k)"].E4SC-0.1 {
		t.Errorf("P3C+ (%.3f) well below DOC (%.3f)", plus, byName["DOC (true k)"].E4SC)
	}
	var buf bytes.Buffer
	RenderZoo(&buf, rows)
	if !strings.Contains(buf.String(), "PROCLUS") {
		t.Error("render missing rows")
	}
}

func TestColonShape(t *testing.T) {
	row, err := Colon(5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("P3C: maj=%.2f hun=%.2f  P3C+: maj=%.2f hun=%.2f",
		row.MajorityP3C, row.HungarianP3C, row.MajorityP3CPlus, row.HungarianP3CPlus)
	// The reproducible shape on the synthetic twin (§7.6 runs on the real
	// UCI data, which is unavailable offline): both algorithms recover
	// meaningful class structure from 62×2000 data — majority accuracies
	// well above the 65% base rate of the larger class being trivially
	// assigned... the base rate is 40/62 = 0.645, so require clearly more.
	if row.MajorityP3CPlus < 0.70 {
		t.Errorf("P3C+ majority accuracy %.2f too low", row.MajorityP3CPlus)
	}
	if row.MajorityP3C < 0.70 {
		t.Errorf("P3C majority accuracy %.2f too low", row.MajorityP3C)
	}
	// And all accuracies are valid fractions.
	for _, v := range []float64{row.MajorityP3C, row.MajorityP3CPlus, row.HungarianP3C, row.HungarianP3CPlus} {
		if v < 0 || v > 1 {
			t.Errorf("accuracy %g out of range", v)
		}
	}
	var buf bytes.Buffer
	RenderColon(&buf, row)
	if !strings.Contains(buf.String(), "P3C+") {
		t.Error("render missing rows")
	}
}
