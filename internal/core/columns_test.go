package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
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
			trace := obs.NewForest()
			if _, err := Run(mr.NewEngine(mr.Config{Tracer: trace}), data, c.params); err != nil {
				t.Fatal(err)
			}
			jobs := trace.Analyze(0).Runs[0].Jobs
			i := slices.IndexFunc(jobs, func(j obs.JobRow) bool { return j.Name == c.job })
			if i < 0 {
				t.Fatalf("%s never ran", c.job)
			}
			st := jobs[i]
			if st.Runs != 1 || st.Counters.MapOutputRecords != 9 {
				t.Fatalf("%d runs, %d map output records; want 1 run, one record per split (9)", st.Runs, st.Counters.MapOutputRecords)
			}
		})
	}
}

// randomSlabs returns contiguous splits of the given sizes from global
// index offset on, each with a random member slab of k signatures over its
// rows, as the membership job emits them, and the job's output. Signature
// 0 holds no row when k > 1; the others each hold a row with probability
// 1/2, so many rows are held by two or more. Bits past a split's last row
// are set too: readers must mask them.
func randomSlabs(rng *rand.Rand, sizes []int, offset, k int) ([]*mr.Split, []splitMembers, *mr.Output) {
	var splits []*mr.Split
	var members []splitMembers
	out := &mr.Output{}
	for id, sz := range sizes {
		s := &mr.Split{ID: id, Offset: offset, Dim: 1, Rows: make([]float64, sz)}
		slab := make([]uint64, k*bitWords(s))
		for i := range slab {
			if k == 1 || i >= bitWords(s) {
				slab[i] = rng.Uint64()
			}
		}
		splits = append(splits, s)
		members = append(members, splitMembers{slab, bitWords(s), s.Offset, sz})
		out.Pairs = append(out.Pairs, mr.Pair{Key: mr.SplitKey(s), Value: slab})
		offset += sz
	}
	return splits, members, out
}

// TestMemberColumnsMatchPerPoint holds collectMembers and uniqueLabels to
// per-point references built on splitMembers.of, over random slabs of
// k = 1…5 signatures and splits of 0, 1, 63, 64, 65 and 4097 rows from a
// nonzero offset on, element for element and in order. Every object list
// is sized exactly.
func TestMemberColumnsMatchPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sizes := []int{0, 1, 63, 64, 65, 4097}
	for k := 1; k <= 5; k++ {
		perm := rng.Perm(len(sizes))
		shuffled := make([]int, len(sizes))
		for i, j := range perm {
			shuffled[i] = sizes[j]
		}
		for _, sz := range [][]int{sizes, shuffled} {
			splits, members, out := randomSlabs(rng, sz, 1+rng.Intn(1000), k)
			objects, err := collectMembers(out, splits, k)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]int, k)
			shared := 0
			var ids []int
			for _, sm := range members {
				lab := uniqueLabels(sm)
				if len(lab) != sm.rows {
					t.Fatalf("k=%d: %d labels for %d rows", k, len(lab), sm.rows)
				}
				for r := range sm.rows {
					ids = sm.of(ids[:0], sm.offset+r)
					for _, c := range ids {
						want[c] = append(want[c], sm.offset+r)
					}
					wantLab := int32(-1)
					if len(ids) == 1 {
						wantLab = int32(ids[0])
					} else if len(ids) > 1 {
						shared++
					}
					if lab[r] != wantLab {
						t.Fatalf("k=%d sizes %v: row %d labelled %d, per-point %d", k, sz, sm.offset+r, lab[r], wantLab)
					}
				}
			}
			if k > 2 && shared == 0 {
				t.Fatalf("k=%d: no row held by two signatures", k)
			}
			for c := range want {
				if !slices.Equal(objects[c], want[c]) {
					t.Fatalf("k=%d sizes %v: signature %d has %d objects, per-point %d", k, sz, c, len(objects[c]), len(want[c]))
				}
				if cap(objects[c]) != len(objects[c]) {
					t.Fatalf("k=%d: signature %d list has cap %d, len %d", k, c, cap(objects[c]), len(objects[c]))
				}
			}
			if k > 1 && objects[0] != nil {
				t.Fatalf("k=%d: empty signature 0 has objects %v", k, objects[0])
			}
		}
	}
}

// benchSlabs is the membership output of 5 signatures over 2¹⁸ rows in
// 16 splits, each row held by a signature with probability 1/4.
func benchSlabs() ([]*mr.Split, []splitMembers, *mr.Output) {
	const k, n, parts = 5, 1 << 18, 16
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, parts)
	for i := range sizes {
		sizes[i] = n / parts
	}
	splits, members, out := randomSlabs(rng, sizes, 0, k)
	for _, sm := range members {
		for i := range sm.bits {
			sm.bits[i] = rng.Uint64() & rng.Uint64()
		}
	}
	return splits, members, out
}

func BenchmarkCollectMembers(b *testing.B) {
	splits, _, out := benchSlabs()
	b.ResetTimer()
	b.ReportAllocs()
	for range b.N {
		if _, err := collectMembers(out, splits, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniqueLabels(b *testing.B) {
	_, members, _ := benchSlabs()
	b.ResetTimer()
	b.ReportAllocs()
	for range b.N {
		for _, sm := range members {
			uniqueLabels(sm)
		}
	}
}
