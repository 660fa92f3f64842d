// Package bow implements the BoW baseline (Cordeiro et al., KDD 2011) the
// paper compares against (§2, §7.5): the data set is partitioned into
// blocks of at most SamplesPerReducer points, each block is clustered
// independently by a plug-in algorithm on one reducer, and the per-block
// hyperrectangle results are merged by repeatedly uniting intersecting
// rectangles with identical subspaces. BoW is approximate by construction:
// per-block sampling error shifts cluster borders, and the merge phase
// inflates them — the quality losses the paper measures in Figure 6.
package bow

import (
	"fmt"
	"math/rand"
	"time"

	"p3cmr/internal/core"
	"p3cmr/internal/dataset"
	"p3cmr/internal/eval"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/outlier"
	"p3cmr/internal/signature"
)

// Params configures a BoW run.
type Params struct {
	// SamplesPerReducer caps the block size (paper: 100 000).
	SamplesPerReducer int
	// Plugin parameterizes the per-block clustering (the paper plugs in
	// P3C+; the Light flavour uses core.LightParams(), the MVB flavour
	// core.NewParams()).
	Plugin core.Params
	// Seed drives the random block partition.
	Seed int64
	// Reducers is the modeled reducer count used for the simulated-runtime
	// accounting (0 = the engine's configuration).
	Reducers int
}

// NewLightParams returns BoW with the P3C+-Light plugin.
func NewLightParams() Params {
	p := core.LightParams()
	p.NumSplits = 1
	return Params{SamplesPerReducer: 100000, Plugin: p}
}

// NewMVBParams returns BoW with the full P3C+ (MVB) plugin.
func NewMVBParams() Params {
	p := core.NewParams()
	p.NumSplits = 1
	return Params{SamplesPerReducer: 100000, Plugin: p}
}

// Result is the merged BoW output.
type Result struct {
	// Signatures are the merged hyperrectangles with their subspaces.
	Signatures []signature.Signature
	// Clusters are the evaluation clusters: support sets of the merged
	// rectangles with their attribute sets.
	Clusters []*eval.Cluster
	// Labels is the disjoint label view (first containing rectangle wins;
	// outlier.OutlierLabel otherwise).
	Labels []int
	// Stats carries execution metadata.
	Stats Stats
}

// Stats aggregates BoW execution metadata.
type Stats struct {
	Blocks           int
	RawSignatures    int
	MergedSignatures int
	WallTime         time.Duration
	// PassesPerBlock is the measured number of data passes (MapReduce jobs
	// of the plug-in pipeline) one block clustering makes — the Light
	// plug-in makes far fewer than the full MVB plug-in.
	PassesPerBlock int
	// SimulatedSeconds models the cluster runtime: one job startup, a map
	// pass over the data, and ⌈blocks/reducers⌉ sequential block
	// clusterings per reducer wave (the bottleneck the paper identifies in
	// §7.5.2).
	SimulatedSeconds float64
}

// Run executes BoW on the data set.
func Run(engine *mr.Engine, data *dataset.Dataset, params Params) (*Result, error) {
	if params.SamplesPerReducer <= 0 {
		return nil, fmt.Errorf("bow: SamplesPerReducer must be positive")
	}
	start := obs.Now()
	n := data.N()
	if n == 0 {
		return &Result{}, nil
	}

	// Partition the data into random blocks of at most SamplesPerReducer
	// points — the sampling/shuffling map phase of BoW.
	rng := rand.New(rand.NewSource(params.Seed))
	perm := rng.Perm(n)
	numBlocks := (n + params.SamplesPerReducer - 1) / params.SamplesPerReducer
	blocks := make([][]int, numBlocks)
	for i, idx := range perm {
		b := i % numBlocks
		blocks[b] = append(blocks[b], idx)
	}

	// Per-block clustering (the reduce phase). Each block runs the plug-in
	// pipeline on a block-local engine so its job accounting does not
	// pollute the outer engine; the simulated cost is charged explicitly
	// below.
	var raw []signature.Signature
	blockEngine := mr.NewEngine(mr.Config{Parallelism: 1, NumReducers: 1})
	for b, idx := range blocks {
		sub := data.Subset(idx)
		res, err := core.Run(blockEngine, sub, params.Plugin)
		if err != nil {
			return nil, fmt.Errorf("bow: block %d: %w", b, err)
		}
		for _, sig := range res.Signatures {
			if len(sig.Intervals) > 0 {
				raw = append(raw, signature.New(sig.Intervals...))
			}
		}
	}

	merged := MergeRectangles(raw)

	// Final assignment pass: label every point with its first containing
	// merged rectangle (one map-only job on the outer engine).
	labels, clusters, err := assign(engine, data, merged)
	if err != nil {
		return nil, err
	}

	passes := blockEngine.JobsRun() / numBlocks
	if passes < 1 {
		passes = 1
	}
	res := &Result{
		Signatures: merged,
		Clusters:   clusters,
		Labels:     labels,
		Stats: Stats{
			Blocks:           numBlocks,
			RawSignatures:    len(raw),
			MergedSignatures: len(merged),
			PassesPerBlock:   passes,
			WallTime:         obs.Since(start),
		},
	}
	res.Stats.SimulatedSeconds = ScheduleSeconds(engine.Cost(), params.Reducers, n, params.SamplesPerReducer, passes)
	return res, nil
}

// MergeRectangles repeatedly unites intersecting hyperrectangles that live
// in the same subspace until a fixpoint, returning the merged set. Merging
// takes the per-attribute union bounding interval.
func MergeRectangles(sigs []signature.Signature) []signature.Signature {
	work := append([]signature.Signature(nil), sigs...)
	for {
		mergedAny := false
		var out []signature.Signature
		used := make([]bool, len(work))
		for i := 0; i < len(work); i++ {
			if used[i] {
				continue
			}
			cur := work[i]
			for j := i + 1; j < len(work); j++ {
				if used[j] {
					continue
				}
				if m, ok := mergeTwo(cur, work[j]); ok {
					cur = m
					used[j] = true
					mergedAny = true
				}
			}
			out = append(out, cur)
		}
		work = out
		if !mergedAny {
			break
		}
	}
	signature.Sort(work)
	return work
}

// mergeTwo merges two signatures when they constrain the same attributes
// and their intervals pairwise overlap.
func mergeTwo(a, b signature.Signature) (signature.Signature, bool) {
	if a.P() != b.P() {
		return signature.Signature{}, false
	}
	ivs := make([]signature.Interval, 0, a.P())
	for i, ia := range a.Intervals {
		ib := b.Intervals[i]
		if ia.Attr != ib.Attr || !ia.Overlaps(ib) {
			return signature.Signature{}, false
		}
		lo, hi := ia.Lo, ia.Hi
		if ib.Lo < lo {
			lo = ib.Lo
		}
		if ib.Hi > hi {
			hi = ib.Hi
		}
		ivs = append(ivs, signature.Interval{Attr: ia.Attr, Lo: lo, Hi: hi})
	}
	return signature.New(ivs...), true
}

// assign labels every point with the index of the first merged rectangle
// containing it and builds the evaluation clusters (support sets).
func assign(engine *mr.Engine, data *dataset.Dataset, merged []signature.Signature) ([]int, []*eval.Cluster, error) {
	n := data.N()
	labels := make([]int, n)
	for i := range labels {
		labels[i] = outlier.OutlierLabel
	}
	clusters := make([]*eval.Cluster, len(merged))
	for c := range clusters {
		clusters[c] = &eval.Cluster{Attrs: merged[c].Attrs()}
	}
	if len(merged) == 0 {
		return labels, clusters, nil
	}

	objects, err := core.Memberships(engine, "bow-assign", data.Splits(16), merged, 0)
	if err != nil {
		return nil, nil, err
	}
	// Descending, so the lowest rectangle holding a point labels it last.
	for c := len(objects) - 1; c >= 0; c-- {
		clusters[c].Objects = objects[c]
		for _, i := range objects[c] {
			labels[i] = c
		}
	}
	return labels, clusters, nil
}

// ScheduleSeconds models BoW's wall clock under a MapReduce cost model: one
// job startup, a map pass routing every point to its block, and then the
// reduce waves — each of the R reducers sequentially clusters
// ⌈blocks/R⌉ blocks, and one block clustering makes passesPerBlock
// in-memory passes over its samplesPerReducer points. This is the
// single-job, reducer-bound schedule the paper describes in §7.5.2: with
// enough reducers BoW distributes ideally, but once blocks outnumber
// reducers the waves serialize.
func ScheduleSeconds(cm mr.CostModel, reducers, n, samplesPerReducer, passesPerBlock int) float64 {
	if !cm.Enabled() {
		return 0
	}
	if reducers <= 0 {
		reducers = cm.MapSlots
	}
	if reducers <= 0 {
		reducers = 112
	}
	slots := cm.MapSlots
	if slots <= 0 {
		slots = 112
	}
	numBlocks := (n + samplesPerReducer - 1) / samplesPerReducer
	if numBlocks < 1 {
		numBlocks = 1
	}
	waves := (numBlocks + reducers - 1) / reducers
	blockPoints := samplesPerReducer
	if n < blockPoints {
		blockPoints = n
	}
	mapPar := numBlocks
	if mapPar > slots {
		mapPar = slots
	}
	s := cm.JobStartupSeconds
	s += cm.SecondsPerMapRecord * float64(n) / float64(mapPar)
	s += float64(waves) * cm.SecondsPerMapRecord * float64(passesPerBlock) * float64(blockPoints)
	return s
}
