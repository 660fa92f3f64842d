package p3cmr

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"p3cmr/internal/signature"
)

// TestPipelineInvariants is a property test over random generator
// configurations: whatever the data looks like, every pipeline output must
// satisfy the structural invariants a downstream consumer relies on.
func TestPipelineInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(1500)
		dim := 6 + rng.Intn(10)
		k := 1 + rng.Intn(3)
		noise := []float64{0, 0.05, 0.1, 0.2}[rng.Intn(4)]
		data, _, err := GenerateSynthetic(SyntheticConfig{
			N: n, Dim: dim, Clusters: k, NoiseFraction: noise, Seed: seed,
		})
		if err != nil {
			t.Logf("seed %d: generate: %v", seed, err)
			return false
		}
		algo := []Algorithm{P3CPlusMRLight, P3CPlusMR}[rng.Intn(2)]
		res, err := Run(data, Config{Algorithm: algo})
		if err != nil {
			t.Logf("seed %d: run: %v", seed, err)
			return false
		}
		// Labels cover every point and stay in range.
		if len(res.Labels) != n {
			t.Logf("seed %d: labels %d != n %d", seed, len(res.Labels), n)
			return false
		}
		for _, l := range res.Labels {
			if l < -1 || l >= len(res.Clusters) {
				t.Logf("seed %d: label %d out of range", seed, l)
				return false
			}
		}
		// Clusters and signatures correspond; intervals are sane.
		if len(res.Clusters) != len(res.Signatures) {
			t.Logf("seed %d: clusters/signatures mismatch", seed)
			return false
		}
		for ci, c := range res.Clusters {
			for _, o := range c.Objects {
				if o < 0 || o >= n {
					t.Logf("seed %d: object %d out of range", seed, o)
					return false
				}
			}
			for _, a := range c.Attrs {
				if a < 0 || a >= dim {
					t.Logf("seed %d: attr %d out of range", seed, a)
					return false
				}
			}
			for _, iv := range res.Signatures[ci].Intervals {
				if iv.Lo > iv.Hi || iv.Lo < 0 || iv.Hi > 1 {
					t.Logf("seed %d: interval %v out of range", seed, iv)
					return false
				}
			}
		}
		// The evaluation view must construct cleanly.
		if _, err := FoundClustering(res, data); err != nil {
			t.Logf("seed %d: evaluation: %v", seed, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPermutedRowsAndSplitsInvariant is a metamorphic check on two row
// layouts of one data set, each against the original run over 2 splits:
//
//   - "shuffled": all rows permuted and counted over 3 splits, which moves
//     every split's contents and every support counter's block boundaries;
//   - "shuffled-within-splits": each of the 2 splits' rows permuted in
//     place, which moves the block boundaries but keeps the split contents.
//
// The cluster cores and their supports — exact counts — must not change in
// either layout, for Light and MVB alike, and the clusters must be the same
// up to relabelling: E4SC exactly 1, with each permuted object mapped back
// to its original index. The one exception is MVB's clusters on the
// shuffled layout, which are not checked: MVB's outlier centres are medians
// of per-split medians (§5.5), which depend on the split contents by
// design.
func TestPermutedRowsAndSplitsInvariant(t *testing.T) {
	data, _, err := GenerateSynthetic(SyntheticConfig{N: 10000, Dim: 12, Clusters: 3, NoiseFraction: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	half := data.N() / 2
	within := append(rng.Perm(half), rng.Perm(half)...)
	for i := half; i < len(within); i++ {
		within[i] += half
	}
	layouts := []struct {
		name        string
		perm        []int // row i moves to perm[i]
		splits      int
		keepsSplits bool
	}{
		{"shuffled", rng.Perm(data.N()), 3, false},
		{"shuffled-within-splits", within, 2, true},
	}
	for _, algo := range []Algorithm{P3CPlusMRLight, P3CPlusMR} {
		run := func(d *Dataset, splits int) *Result {
			cfg := DefaultConfig(algo)
			cfg.Params.NumSplits = splits
			res, err := Run(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		// Splits of 5000 rows straddle a 4096-row counting block; splits
		// of 3334 do not.
		base := run(data, 2)
		if len(base.Core.Cores) == 0 {
			t.Fatalf("%v: no cluster cores found: the invariant is vacuous", algo)
		}
		want, err := FoundClustering(base, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range layouts {
			t.Run(algo.String()+"/"+l.name, func(t *testing.T) {
				orig := make([]int, data.N()) // orig[perm[i]] = i
				permuted := make([]float64, len(data.Rows))
				for i, p := range l.perm {
					orig[p] = i
					copy(permuted[p*data.Dim:(p+1)*data.Dim], data.Row(i))
				}
				moved := run(&Dataset{Dim: data.Dim, Rows: permuted}, l.splits)
				if !reflect.DeepEqual(moved.Core.Cores, base.Core.Cores) || !slices.Equal(moved.Core.CoreSupports, base.Core.CoreSupports) {
					t.Fatalf("cores moved: %v %v, want %v %v", moved.Core.Cores, moved.Core.CoreSupports, base.Core.Cores, base.Core.CoreSupports)
				}
				mapped := make([]*Cluster, len(moved.Clusters))
				for c, cl := range moved.Clusters {
					objs := make([]int, len(cl.Objects))
					for k, o := range cl.Objects {
						objs[k] = orig[o]
					}
					mapped[c] = &Cluster{Objects: objs, Attrs: cl.Attrs}
				}
				got, err := FoundClustering(&Result{Clusters: mapped}, data)
				if err != nil {
					t.Fatal(err)
				}
				e := E4SC(got, want)
				t.Logf("%d cores, %d clusters, E4SC %v", len(base.Core.Cores), len(base.Clusters), e)
				if algo == P3CPlusMR && !l.keepsSplits {
					return
				}
				if e != 1 {
					t.Errorf("%d clusters vs %d: E4SC = %v against the unpermuted run, want 1", len(moved.Clusters), len(base.Clusters), e)
				}
			})
		}
	}
}

// TestPermutedAttributesInvariant is a metamorphic check on the column
// order: attribute a of the data moves to perm[a], which renumbers every
// interval's attribute — and so every counting index's intervals and the
// splits' cached interval bitmaps. The cores and their supports must be
// the original ones renumbered, and the clusters the same up to
// relabelling, with each cluster's attributes mapped back: E4SC exactly 1.
func TestPermutedAttributesInvariant(t *testing.T) {
	data, _, err := GenerateSynthetic(SyntheticConfig{N: 10000, Dim: 12, Clusters: 3, NoiseFraction: 0.1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(14)).Perm(data.Dim)
	permuted := &Dataset{Dim: data.Dim, Rows: make([]float64, len(data.Rows))}
	for i := 0; i < data.N(); i++ {
		for a, v := range data.Row(i) {
			permuted.Rows[i*data.Dim+perm[a]] = v
		}
	}
	orig := make([]int, data.Dim) // orig[perm[a]] = a
	for a, p := range perm {
		orig[p] = a
	}
	for _, algo := range []Algorithm{P3CPlusMRLight, P3CPlusMR} {
		t.Run(algo.String(), func(t *testing.T) {
			base, err := Run(data, Config{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if len(base.Core.Cores) == 0 {
				t.Fatal("no cluster cores found: the invariant is vacuous")
			}
			moved, err := Run(permuted, Config{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			// Cores keyed by their signature, renumbered back.
			cores := func(res *Result, attr func(int) int) map[string]int64 {
				m := map[string]int64{}
				for i, c := range res.Core.Cores {
					ivs := slices.Clone(c.Intervals)
					for k := range ivs {
						ivs[k].Attr = attr(ivs[k].Attr)
					}
					m[signature.New(ivs...).Key()] = res.Core.CoreSupports[i]
				}
				return m
			}
			same := func(a int) int { return a }
			if got, want := cores(moved, func(a int) int { return orig[a] }), cores(base, same); !maps.Equal(got, want) {
				t.Fatalf("cores moved: %v, want %v", got, want)
			}
			want, err := FoundClustering(base, data)
			if err != nil {
				t.Fatal(err)
			}
			mapped := make([]*Cluster, len(moved.Clusters))
			for c, cl := range moved.Clusters {
				attrs := make([]int, len(cl.Attrs))
				for k, a := range cl.Attrs {
					attrs[k] = orig[a]
				}
				slices.Sort(attrs)
				mapped[c] = &Cluster{Objects: cl.Objects, Attrs: attrs}
			}
			got, err := FoundClustering(&Result{Clusters: mapped}, data)
			if err != nil {
				t.Fatal(err)
			}
			e := E4SC(got, want)
			t.Logf("%d cores, %d clusters, E4SC %v", len(base.Core.Cores), len(base.Clusters), e)
			if e != 1 {
				t.Errorf("%d clusters vs %d: E4SC = %v against the unpermuted run, want 1", len(moved.Clusters), len(base.Clusters), e)
			}
		})
	}
}

// TestAffineRescalingInvariant is a metamorphic check on units: each
// attribute rescaled by its own positive factor and shifted, then
// min-max normalized as p3crun -normalize does, must cluster like the
// normalized original — E4SC exactly 1 for Light and MVB. The factors and
// shifts are not powers of two, so the two normalized data sets differ in
// their last bits; the check is that no cluster boundary is that fragile.
func TestAffineRescalingInvariant(t *testing.T) {
	data, _, err := GenerateSynthetic(SyntheticConfig{N: 10000, Dim: 12, Clusters: 3, NoiseFraction: 0.1, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	scale, shift := make([]float64, data.Dim), make([]float64, data.Dim)
	for a := range scale {
		scale[a] = 0.01 + 1000*rng.Float64()
		shift[a] = 2000*rng.Float64() - 1000
	}
	rescaled := &Dataset{Dim: data.Dim, Rows: make([]float64, len(data.Rows))}
	for i, v := range data.Rows {
		a := i % data.Dim
		rescaled.Rows[i] = scale[a]*v + shift[a]
	}
	normalized := &Dataset{Dim: data.Dim, Rows: slices.Clone(data.Rows)}
	normalized.Normalize()
	rescaled.Normalize()
	for _, algo := range []Algorithm{P3CPlusMRLight, P3CPlusMR} {
		t.Run(algo.String(), func(t *testing.T) {
			base, err := Run(normalized, Config{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if len(base.Clusters) == 0 {
				t.Fatal("no clusters found: the invariant is vacuous")
			}
			moved, err := Run(rescaled, Config{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			want, err := FoundClustering(base, normalized)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FoundClustering(moved, normalized)
			if err != nil {
				t.Fatal(err)
			}
			e := E4SC(got, want)
			t.Logf("%d clusters, E4SC %v", len(base.Clusters), e)
			if e != 1 {
				t.Errorf("%d clusters vs %d: E4SC = %v against the original units, want 1", len(moved.Clusters), len(base.Clusters), e)
			}
		})
	}
}
