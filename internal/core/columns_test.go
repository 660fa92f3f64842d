package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"p3cmr/internal/mr"
	"p3cmr/internal/signature"
)

// columnSplits cuts uniform rows of width dim into splits of the given
// sizes, which straddle the 64-row words of a member bitmap.
func columnSplits(sizes []int, dim int, seed int64) ([]*mr.Split, int) {
	rng := rand.New(rand.NewSource(seed))
	var splits []*mr.Split
	n := 0
	for id, sz := range sizes {
		rows := make([]float64, sz*dim)
		for i := range rows {
			rows[i] = rng.Float64()
		}
		splits = append(splits, &mr.Split{ID: id, Offset: n, Dim: dim, Rows: rows})
		n += sz
	}
	return splits, n
}

// TestMembershipsMatchContains pins Memberships to a per-point
// Signature.Contains oracle over splits whose sizes straddle bitmap
// words, with overlapping cores, a signature without intervals (it holds
// every point) and one with a NaN endpoint (it holds none). It also pins
// the Light unique-label column the later jobs read off the cores to the
// unique membership m′ the driver derives from the same objects.
func TestMembershipsMatchContains(t *testing.T) {
	iv := func(a int, lo, hi float64) signature.Interval { return signature.Interval{Attr: a, Lo: lo, Hi: hi} }
	cores := []signature.Signature{
		signature.New(iv(0, 0, 0.5)),
		signature.New(iv(0, 0.4, 0.8), iv(1, 0.2, 0.9)),
		signature.New(iv(2, 0.7, 1)),
	}
	splits, n := columnSplits([]int{1, 63, 64, 65, 4097}, 3, 4)
	for _, c := range []struct {
		name string
		sigs []signature.Signature
	}{
		{"cores", cores},
		{"empty-and-nan", append(slices.Clone(cores), signature.Signature{}, signature.New(iv(1, math.NaN(), 0.5)))},
	} {
		t.Run(c.name, func(t *testing.T) {
			objects, err := Memberships(mr.Default(), "light-membership", splits, c.sigs, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(objects) != len(c.sigs) {
				t.Fatalf("%d object lists for %d signatures", len(objects), len(c.sigs))
			}
			for j, sig := range c.sigs {
				var want []int
				for _, s := range splits {
					for r := 0; r < s.NumRows(); r++ {
						if sig.Contains(s.Row(r)) {
							want = append(want, s.Offset+r)
						}
					}
				}
				if !slices.Equal(objects[j], want) {
					t.Fatalf("signature %v: %d objects, oracle %d", sig, len(objects[j]), len(want))
				}
			}

			ratios := make([]float64, len(c.sigs))
			for j := range ratios {
				ratios[j] = float64((j * 7) % 5)
			}
			labels, held, uniqueCounts := lightLabels(objects, ratios, n)
			column, err := memberSource{Cores: signature.AppendSet(nil, c.sigs)}.labeler()
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int64, len(c.sigs))
			for _, s := range splits {
				lab := column(s)
				if len(lab) != s.NumRows() {
					t.Fatalf("split %d: %d labels for %d rows", s.ID, len(lab), s.NumRows())
				}
				for r, got := range lab {
					i := s.Offset + r
					want := -1
					if held[i] == 1 {
						want = labels[i]
					}
					if int(got) != want {
						t.Fatalf("point %d: column label %d, unique membership %d", i, got, want)
					}
					if got >= 0 {
						counts[got]++
					}
				}
			}
			if !slices.Equal(counts, uniqueCounts) {
				t.Fatalf("column counts %v, unique counts %v", counts, uniqueCounts)
			}
		})
	}
}

// TestCollectorsRejectBadRecords feeds the driver-side readers of the
// attribute-inspection, tightening and membership jobs records with a bad
// key or a bad length. Each is an error, never a panic, a silent slot or a
// key accepted with trailing garbage.
func TestCollectorsRejectBadRecords(t *testing.T) {
	const k, dim = 4, 3
	bins := []int{2, 2, 3, 2}
	attrs := [][]int{{0, 1}, {2}, {0}, {1, 2}}
	splits, _ := columnSplits([]int{70, 5}, 1, 1)
	pairs := func(ps ...mr.Pair) *mr.Output { return &mr.Output{Pairs: ps} }
	slab := func(s *mr.Split, sigs int) []uint64 { return make([]uint64, sigs*bitWords(s)) }
	goodSlabs := []mr.Pair{{Key: "s0", Value: slab(splits[0], k)}, {Key: "s1", Value: slab(splits[1], k)}}

	aiHist := func(o *mr.Output) error { _, err := collectAIHistograms(o, k, dim, bins); return err }
	tighten := func(o *mr.Output) error { _, _, err := collectTightened(o, attrs); return err }
	members := func(o *mr.Output) error { _, err := collectMembers(o, splits, k); return err }
	for _, c := range []struct {
		name    string
		collect func(*mr.Output) error
		out     *mr.Output
		ok      bool
	}{
		{"ai/good", aiHist, pairs(mr.Pair{Key: "ai2_1", Value: []int64{1, 2, 3}}), true},
		{"ai/cluster-out-of-range", aiHist, pairs(mr.Pair{Key: "ai9_0", Value: []int64{1, 2}}), false},
		{"ai/negative-cluster", aiHist, pairs(mr.Pair{Key: "ai-1_0", Value: []int64{1, 2}}), false},
		{"ai/trailing-garbage", aiHist, pairs(mr.Pair{Key: "ai1_2x", Value: []int64{1, 2}}), false},
		{"ai/attribute-out-of-range", aiHist, pairs(mr.Pair{Key: "ai1_3", Value: []int64{1, 2}}), false},
		{"ai/no-attribute", aiHist, pairs(mr.Pair{Key: "ai1", Value: []int64{1, 2}}), false},
		{"ai/bad-bin-count", aiHist, pairs(mr.Pair{Key: "ai2_1", Value: []int64{1, 2}}), false},
		{"tighten/good", tighten, pairs(mr.Pair{Key: "t3_2", Value: [2]float64{0, 1}}), true},
		{"tighten/cluster-out-of-range", tighten, pairs(mr.Pair{Key: "t9_0", Value: [2]float64{0, 1}}), false},
		{"tighten/negative-cluster", tighten, pairs(mr.Pair{Key: "t-1_0", Value: [2]float64{0, 1}}), false},
		{"tighten/trailing-garbage", tighten, pairs(mr.Pair{Key: "t1_2x", Value: [2]float64{0, 1}}), false},
		{"tighten/attribute-not-tightened", tighten, pairs(mr.Pair{Key: "t1_0", Value: [2]float64{0, 1}}), false},
		{"members/good", members, pairs(goodSlabs...), true},
		{"members/split-out-of-range", members, pairs(goodSlabs[0], mr.Pair{Key: "s2", Value: slab(splits[1], k)}), false},
		{"members/trailing-garbage", members, pairs(goodSlabs[0], mr.Pair{Key: "s1x", Value: slab(splits[1], k)}), false},
		{"members/short-slab", members, pairs(goodSlabs[0], mr.Pair{Key: "s1", Value: slab(splits[1], k-1)}), false},
		{"members/long-slab", members, pairs(mr.Pair{Key: "s0", Value: slab(splits[0], k+1)}, goodSlabs[1]), false},
		{"members/missing-split", members, pairs(goodSlabs[0]), false},
		{"members/repeated-split", members, pairs(goodSlabs[0], goodSlabs[1], goodSlabs[1]), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.collect(c.out)
			if (err == nil) != c.ok {
				t.Fatalf("err = %v, want ok %v", err, c.ok)
			}
		})
	}
}

// TestSplitColumnJobsEmitOncePerSplit pins the per-split emission: the
// membership and outlier-detection jobs emit one record per split, not
// one per point.
func TestSplitColumnJobsEmitOncePerSplit(t *testing.T) {
	data, _ := genData(t, 3000, 10, 3, 0.1, 21)
	for _, c := range []struct {
		job    string
		params Params
	}{
		{"light-membership", LightParams()},
		{"outlier-detect", NewParams()},
	} {
		t.Run(c.job, func(t *testing.T) {
			c.params.NumSplits = 9
			engine := mr.NewEngine(mr.Config{})
			if _, err := Run(engine, data, c.params); err != nil {
				t.Fatal(err)
			}
			st := engine.JobStatsByName()[c.job]
			if st.Runs != 1 || st.Counters.MapOutputRecords != 9 {
				t.Fatalf("%d runs, %d map output records; want 1 run, one record per split (9)", st.Runs, st.Counters.MapOutputRecords)
			}
		})
	}
}
