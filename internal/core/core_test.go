package core

import (
	"fmt"
	"slices"
	"testing"

	"p3cmr/internal/dataset"
	"p3cmr/internal/eval"
	"p3cmr/internal/mr"
	"p3cmr/internal/outlier"
	"p3cmr/internal/signature"
)

// genData is a shared fixture helper.
func genData(t *testing.T, n, dim, k int, noise float64, seed int64) (*dataset.Dataset, *dataset.GroundTruth) {
	t.Helper()
	data, truth, err := dataset.Generate(dataset.GenConfig{
		N: n, Dim: dim, Clusters: k, NoiseFraction: noise, Seed: seed, Overlap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data, truth
}

func truthClustering(t *testing.T, truth *dataset.GroundTruth) *eval.SubspaceClustering {
	t.Helper()
	sc, err := truth.Clustering()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func resultClustering(t *testing.T, res *Result, n, dim int) *eval.SubspaceClustering {
	t.Helper()
	sc, err := eval.NewSubspaceClustering(n, dim, res.Clusters)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestParamsValidate(t *testing.T) {
	if err := NewParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := NewParams()
	bad.AlphaChi2 = 0
	if bad.Validate() == nil {
		t.Error("zero AlphaChi2 accepted")
	}
	bad = NewParams()
	bad.AlphaPoisson = 1
	if bad.Validate() == nil {
		t.Error("AlphaPoisson=1 accepted")
	}
	bad = NewParams()
	bad.ThetaCC = 0
	if bad.Validate() == nil {
		t.Error("zero ThetaCC with effect size accepted")
	}
	bad = NewParams()
	bad.RedundancyCoverage = 1.5
	if bad.Validate() == nil {
		t.Error("coverage > 1 accepted")
	}
	bad = NewParams()
	bad.Tc = -1
	if bad.Validate() == nil {
		t.Error("negative Tc accepted")
	}
}

func TestPresets(t *testing.T) {
	orig := OriginalP3CParams()
	if orig.BinRule != Sturges || orig.UseEffectSize || orig.UseRedundancyFilter ||
		orig.UseAIProving || orig.OutlierMethod != outlier.Naive {
		t.Error("original P3C preset wrong")
	}
	light := LightParams()
	if !light.SkipRefinement {
		t.Error("light preset must skip refinement")
	}
	if BinRule(99).String() == "" || FreedmanDiaconis.String() != "freedman-diaconis" || Sturges.String() != "sturges" {
		t.Error("BinRule names wrong")
	}
}

func TestLightPipelineFindsPlantedClusters(t *testing.T) {
	data, truth := genData(t, 4000, 25, 4, 0.1, 21)
	res, err := Run(mr.Default(), data, LightParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 4 {
		t.Errorf("cores = %d, want 4", len(res.Cores))
	}
	e4sc := eval.E4SC(resultClustering(t, res, data.N(), data.Dim), truthClustering(t, truth))
	if e4sc < 0.7 {
		t.Errorf("E4SC = %.3f", e4sc)
	}
	if res.Stats.Jobs == 0 || res.Stats.CandidatesProven == 0 {
		t.Error("stats not recorded")
	}
	if len(res.Labels) != data.N() {
		t.Error("labels length wrong")
	}
}

func TestFullPipelineFindsPlantedClusters(t *testing.T) {
	data, truth := genData(t, 3000, 15, 3, 0.05, 33)
	res, err := Run(mr.Default(), data, NewParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 3 {
		t.Errorf("cores = %d, want 3", len(res.Cores))
	}
	if res.Stats.EMIterations == 0 {
		t.Error("EM did not run")
	}
	e4sc := eval.E4SC(resultClustering(t, res, data.N(), data.Dim), truthClustering(t, truth))
	if e4sc < 0.6 {
		t.Errorf("E4SC = %.3f", e4sc)
	}
}

func TestPipelineOnPureNoise(t *testing.T) {
	// A uniform data set must yield no clusters.
	data, _, err := dataset.Generate(dataset.GenConfig{
		N: 2000, Dim: 10, Clusters: 1, NoiseFraction: 0.95, Seed: 17, Overlap: false,
		MinClusterDims: 2, MaxClusterDims: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the single tiny cluster with uniform noise to get pure
	// noise while keeping a valid generator call.
	for i := range data.Rows {
		data.Rows[i] = float64((int64(i)*2654435761)%100000) / 100000
	}
	res, err := Run(mr.Default(), data, LightParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 0 {
		t.Errorf("pure noise produced %d cores", len(res.Cores))
	}
	for _, l := range res.Labels {
		if l != outlier.OutlierLabel {
			t.Fatal("noise point got a cluster label")
		}
	}
}

func TestOriginalP3CRunsAndP3CPlusBeatsIt(t *testing.T) {
	data, truth := genData(t, 2000, 12, 3, 0.05, 5)
	tc := truthClustering(t, truth)
	resOld, err := Run(mr.Default(), data, OriginalP3CParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(resOld.Cores) < 1 {
		t.Fatal("original P3C found nothing at all")
	}
	resNew, err := Run(mr.Default(), data, NewParams())
	if err != nil {
		t.Fatal(err)
	}
	old := eval.E4SC(resultClustering(t, resOld, data.N(), data.Dim), tc)
	new_ := eval.E4SC(resultClustering(t, resNew, data.N(), data.Dim), tc)
	t.Logf("P3C E4SC=%.3f (cores=%d), P3C+ E4SC=%.3f (cores=%d)",
		old, len(resOld.Cores), new_, len(resNew.Cores))
	// The paper's central quality claim (§7.4, §7.6): the P3C+ model
	// dominates the original on data with overlapping clusters. Allow a
	// small tolerance for sampling noise.
	if new_ < old-0.05 {
		t.Errorf("P3C+ (%.3f) below original P3C (%.3f)", new_, old)
	}
}

// TestRedundancyRescueRecoversShadowedCore is the regression test for the
// overlapping-cluster failure: a 2-attribute cluster sharing its interval
// with a dense high-dimensional cluster must survive the maximality +
// redundancy interaction.
func TestRedundancyRescueRecoversShadowedCore(t *testing.T) {
	data, truth := genData(t, 3000, 15, 3, 0.05, 7)
	// Seed 7 historically produced a 2-attr cluster {a1,a9} shadowed by
	// mixed overlap artifacts.
	has2D := false
	for _, tc := range truth.Clusters {
		if len(tc.Attrs) == 2 {
			has2D = true
		}
	}
	if !has2D {
		t.Skip("fixture changed: no 2-attribute cluster")
	}
	res, err := Run(mr.Default(), data, LightParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 3 {
		t.Fatalf("cores = %d, want 3 (shadowed core lost again?)", len(res.Cores))
	}
}

// provenCores runs the pipeline's histogram and core-generation phases
// over data and returns the pipeline, its core generator and the proven
// signatures that enter the redundancy filter.
func provenCores(t *testing.T, data *dataset.Dataset, params Params) (*pipeline, *coreGenerator, []signature.Signature) {
	t.Helper()
	p := &pipeline{params: params, engine: mr.Default(), splits: data.Splits(16), n: data.N(), dim: data.Dim}
	hists, err := histogramJob(p.engine, p.splits, p.dim, p.binCount(p.n), 0)
	if err != nil {
		t.Fatal(err)
	}
	gen := newCoreGenerator(p.params, p.engine, p.splits, p.n)
	proven, err := gen.run(relevantIntervals(hists, p.params.AlphaChi2))
	if err != nil {
		t.Fatal(err)
	}
	return p, gen, proven
}

// rescueTrace is what a redundancy rescue did: its cores, round one's
// maximal count, its rounds, the rounds that accepted a core and the
// redundancy-uncovered passes it ran.
type rescueTrace struct {
	cores                  []signature.Signature
	before, rounds, passes int
	accepting              []int
}

// roundByRound is the redundancy rescue with one redundancy-uncovered pass
// per round: the reference redundancyRescue's speculated chains must
// equal. It fails the test when a round, or a round of the chain
// rescueChain speculates from that round's cores and pool, would hand the
// filter a pair s ⊆ t, against the precondition of
// signature.NewCoverageIndex.
func roundByRound(t *testing.T, p *pipeline, gen *coreGenerator, proven []signature.Signature) rescueTrace {
	t.Helper()
	var tr rescueTrace
	jobs0 := p.engine.JobsRun()
	pool := slices.Clone(proven)
	for ; ; tr.rounds++ {
		// rescueChain works on copies; rescueRound shortens pool in place.
		cands, _ := rescueChain(tr.cores, pool)
		for r, c := range cands {
			checkAntichain(t, tr.rounds+r, append(slices.Clip(tr.cores), c...))
		}
		all, next := rescueRound(tr.cores, pool)
		k := len(tr.cores)
		if len(all) == k {
			break
		}
		if tr.rounds == 0 {
			tr.before = len(all)
		}
		checkAntichain(t, tr.rounds, all)
		unc, err := uncoveredCounts(p.engine, p.splits, p.chainSpec(gen, tr.cores, [][]signature.Signature{all[k:]}), 0)
		if err != nil {
			t.Fatal(err)
		}
		if tr.cores = p.acceptCores(gen, tr.cores, all[k:], unc[0]); len(tr.cores) > k {
			tr.accepting = append(tr.accepting, tr.rounds)
		}
		pool = next
	}
	tr.passes = p.engine.JobsRun() - jobs0
	return tr
}

func checkAntichain(t *testing.T, round int, sigs []signature.Signature) {
	t.Helper()
	for i, s := range sigs {
		for j, u := range sigs {
			if i != j && s.SubsetOf(u) {
				t.Fatalf("round %d hands the filter %v ⊆ %v", round, s, u)
			}
		}
	}
}

// TestRescueRoundsAreAntichains pins the precondition of the redundancy
// filter's coverage counting (signature.NewCoverageIndex): no rescue round,
// taken or speculated, hands uncoveredCounts a pair s ⊆ t. It replays the
// rescue round by round on the overlap fixture of
// TestRedundancyRescueRecoversShadowedCore and on a noise-free data set
// whose ~200 maximal cores take seven rounds.
func TestRescueRoundsAreAntichains(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  dataset.GenConfig
	}{
		{"overlap", rescueOverlap},
		{"noise-free", rescueNoiseFree},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, _, err := dataset.Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, gen, proven := provenCores(t, data, LightParams())
			ref := roundByRound(t, p, gen, proven)
			if ref.rounds < 2 {
				t.Fatalf("%d rescue rounds: the fixture no longer exercises the rescue", ref.rounds)
			}
			t.Logf("%d proven, %d rounds, %d cores", len(proven), ref.rounds, len(ref.cores))
		})
	}
}

// The rescue fixtures: the overlap data of
// TestRedundancyRescueRecoversShadowedCore, noise-free data whose ~200
// maximal cores take seven rounds, and data on which a speculated round
// accepts a core.
var (
	rescueOverlap          = dataset.GenConfig{N: 3000, Dim: 15, Clusters: 3, NoiseFraction: 0.05, Seed: 7, Overlap: true}
	rescueNoiseFree        = dataset.GenConfig{N: 20000, Dim: 40, Clusters: 5, MaxClusterDims: 14, Seed: 1, Overlap: true}
	rescueSpeculatedAccept = dataset.GenConfig{N: 10000, Dim: 20, Clusters: 4, NoiseFraction: 0.1, Seed: 3, Overlap: true}
)

// speculated runs redundancyRescue and counts its passes.
func speculated(t *testing.T, p *pipeline, gen *coreGenerator, proven []signature.Signature) rescueTrace {
	t.Helper()
	var tr rescueTrace
	jobs0 := p.engine.JobsRun()
	var err error
	if tr.cores, tr.before, tr.rounds, err = p.redundancyRescue(gen, proven); err != nil {
		t.Fatal(err)
	}
	tr.passes = p.engine.JobsRun() - jobs0
	return tr
}

// TestRescueChainsMatchRoundByRound holds redundancyRescue, which counts a
// chain of speculated rounds per pass, to the round-by-round loop: the same
// cores, round-one maximal count and rounds, on Light and MVB over several
// small data sets and the rescue fixtures, in one pass per accepting round
// plus one for a final run of rounds that accept nothing. On
// "speculated-accept" round one accepts too, so the chain counted after
// round zero is cut short at round one and rounds 2–4 are counted again in
// the next chain: five rounds in three passes.
func TestRescueChainsMatchRoundByRound(t *testing.T) {
	type tc struct {
		name      string
		cfg       dataset.GenConfig
		rounds    int
		accepting []int
	}
	cases := []tc{
		{"overlap", rescueOverlap, 0, nil},
		{"noise-free", rescueNoiseFree, 0, nil},
		{"speculated-accept", rescueSpeculatedAccept, 5, []int{0, 1}},
	}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, tc{name: fmt.Sprintf("seed-%d", seed), cfg: dataset.GenConfig{N: 3000, Dim: 12, Clusters: 3, NoiseFraction: 0.1, Seed: seed, Overlap: true}})
	}
	for _, c := range cases {
		for _, v := range []struct {
			name   string
			params Params
		}{{"light", LightParams()}, {"mvb", NewParams()}} {
			t.Run(c.name+"/"+v.name, func(t *testing.T) {
				data, _, err := dataset.Generate(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				p, gen, proven := provenCores(t, data, v.params)
				want := roundByRound(t, p, gen, proven)
				got := speculated(t, p, gen, proven)
				if !slices.EqualFunc(got.cores, want.cores, signature.Signature.Equal) || got.before != want.before || got.rounds != want.rounds {
					t.Fatalf("speculated: %d cores, %d before, %d rounds; round by round: %d, %d, %d",
						len(got.cores), got.before, got.rounds, len(want.cores), want.before, want.rounds)
				}
				if want.passes != want.rounds {
					t.Errorf("round by round ran %d passes for %d rounds", want.passes, want.rounds)
				}
				if len(want.accepting) == 0 || want.accepting[0] != 0 {
					t.Fatalf("accepting rounds %v: round zero accepted nothing", want.accepting)
				}
				passes := len(want.accepting)
				if last := want.accepting[len(want.accepting)-1]; last < want.rounds-1 {
					passes++
				}
				if got.passes != passes {
					t.Errorf("speculated ran %d passes; want %d for %d rounds accepting at %v", got.passes, passes, want.rounds, want.accepting)
				}
				if c.rounds > 0 && (want.rounds != c.rounds || !slices.Equal(want.accepting, c.accepting)) {
					t.Errorf("%d rounds accepting at %v; the fixture wants %d at %v", want.rounds, want.accepting, c.rounds, c.accepting)
				}
				t.Logf("%d proven, %d rounds accepting at %v, %d cores, %d passes", len(proven), want.rounds, want.accepting, len(want.cores), got.passes)
			})
		}
	}
}

func TestRedundancyFilterReducesCores(t *testing.T) {
	data, _ := genData(t, 4000, 20, 5, 0.2, 13)
	with := LightParams()
	without := LightParams()
	without.UseRedundancyFilter = false
	resWith, err := Run(mr.Default(), data, with)
	if err != nil {
		t.Fatal(err)
	}
	resWithout, err := Run(mr.Default(), data, without)
	if err != nil {
		t.Fatal(err)
	}
	if len(resWith.Cores) > len(resWithout.Cores) {
		t.Errorf("filter increased cores: %d > %d", len(resWith.Cores), len(resWithout.Cores))
	}
	if len(resWith.Cores) != 5 {
		t.Errorf("filtered cores = %d, want 5", len(resWith.Cores))
	}
}

func TestStatsDeltaIsolatedPerRun(t *testing.T) {
	data, _ := genData(t, 1500, 10, 2, 0.05, 3)
	engine := mr.Default()
	res1, err := Run(engine, data, LightParams())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(engine, data, LightParams())
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.Jobs != res2.Stats.Jobs {
		t.Errorf("job deltas differ across identical runs: %d vs %d", res1.Stats.Jobs, res2.Stats.Jobs)
	}
	if res2.Stats.Counters.MapInputRecords != res1.Stats.Counters.MapInputRecords {
		t.Error("counter deltas not isolated")
	}
}

func TestOutputSignaturesTightened(t *testing.T) {
	data, truth := genData(t, 3000, 12, 2, 0.0, 41)
	res, err := Run(mr.Default(), data, LightParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Signatures) != len(res.Cores) {
		t.Fatalf("%d signatures for %d cores", len(res.Signatures), len(res.Cores))
	}
	for _, os := range res.Signatures {
		for _, iv := range os.Intervals {
			if iv.Lo > iv.Hi || iv.Lo < 0 || iv.Hi > 1 {
				t.Errorf("bad tightened interval %v", iv)
			}
		}
	}
	// Tightened intervals should approximate the generating intervals:
	// match clusters by attribute overlap and compare bounds loosely.
	for _, os := range res.Signatures {
		attrs := make(map[int]signature.Interval)
		for _, iv := range os.Intervals {
			attrs[iv.Attr] = iv
		}
		bestOverlap, bestIdx := 0, -1
		for ti, tc := range truth.Clusters {
			o := 0
			for _, a := range tc.Attrs {
				if _, ok := attrs[a]; ok {
					o++
				}
			}
			if o > bestOverlap {
				bestOverlap, bestIdx = o, ti
			}
		}
		if bestIdx < 0 {
			t.Error("output signature matches no true cluster")
			continue
		}
		tc := truth.Clusters[bestIdx]
		for j, a := range tc.Attrs {
			iv, ok := attrs[a]
			if !ok {
				continue
			}
			if iv.Lo > tc.Hi[j] || iv.Hi < tc.Lo[j] {
				t.Errorf("tightened interval on a%d [%g,%g] misses true [%g,%g]",
					a, iv.Lo, iv.Hi, tc.Lo[j], tc.Hi[j])
			}
		}
	}
}

func TestRunValidatesInputs(t *testing.T) {
	data, _ := genData(t, 100, 5, 1, 0, 1)
	bad := NewParams()
	bad.AlphaPoisson = -1
	if _, err := Run(mr.Default(), data, bad); err == nil {
		t.Error("invalid params accepted")
	}
	broken := &dataset.Dataset{Dim: 3, Rows: []float64{1, 2}}
	if _, err := Run(mr.Default(), broken, NewParams()); err == nil {
		t.Error("invalid dataset accepted")
	}
}

func TestRelevantAttrsIsArel(t *testing.T) {
	s1 := signature.New(
		signature.Interval{Attr: 3, Lo: 0, Hi: 0.1},
		signature.Interval{Attr: 1, Lo: 0, Hi: 0.1},
	)
	s2 := signature.New(signature.Interval{Attr: 5, Lo: 0, Hi: 0.1})
	got := relevantAttrs([]signature.Signature{s1, s2})
	want := []int{1, 3, 5}
	if len(got) != 3 {
		t.Fatalf("Arel = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Arel = %v, want %v", got, want)
		}
	}
}

func TestNaiveVsMVBOutlierQuality(t *testing.T) {
	// On noisy data the MVB variant should be at least competitive with
	// the naive variant (Figure 4's claim, modulo sampling noise).
	data, truth := genData(t, 3000, 15, 3, 0.2, 77)
	tc := truthClustering(t, truth)
	run := func(m outlier.Method) float64 {
		p := NewParams()
		p.OutlierMethod = m
		res, err := Run(mr.Default(), data, p)
		if err != nil {
			t.Fatal(err)
		}
		return eval.E4SC(resultClustering(t, res, data.N(), data.Dim), tc)
	}
	naive := run(outlier.Naive)
	mvb := run(outlier.MVB)
	t.Logf("naive E4SC=%.3f mvb E4SC=%.3f", naive, mvb)
	if mvb < naive-0.15 {
		t.Errorf("MVB (%.3f) far below naive (%.3f)", mvb, naive)
	}
}
