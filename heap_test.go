package p3cmr

import (
	"runtime"
	"testing"

	"p3cmr/internal/dataset"
	"p3cmr/internal/mr"
)

// liveHeap returns the bytes of live heap objects after a full collection.
// The second collection also empties the sync.Pools' victim caches.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// heldByLightResult runs P3C+-MR-Light on n generated points and returns
// the live heap its Result holds once the data set, the engine and every
// split are garbage, and the points' mean number of core memberships: the
// length of the clusters' object lists over n.
func heldByLightResult(t *testing.T, n int) (int64, float64) {
	t.Helper()
	base := liveHeap()
	res := func() *Result {
		data, _, err := dataset.Generate(dataset.GenConfig{N: n, Dim: 20, Clusters: 4, NoiseFraction: 0.1, Overlap: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(data, Config{Algorithm: P3CPlusMRLight, Engine: mr.NewEngine(mr.Config{Parallelism: 2})})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	held := liveHeap() - base
	members := 0
	for _, c := range res.Clusters {
		members += len(c.Objects)
	}
	return held, float64(members) / float64(n)
}

// TestDriverHeapPerPoint pins what a Light run keeps per input point once
// it returns: the live heap its Result holds grows with n by at most
//
//	8 + 16·m bytes per point,
//
// where m is the points' mean number of core memberships. The Result keeps
// two per-point structures. Labels is one int (8 B) per point. The
// clusters' object lists hold one int per membership, m·n in all. They are
// grown by append, whose capacity stays under twice the length, so they
// take at most 16·m B per point. Everything else the Result holds (cores,
// signatures, attributes, stats) does not grow with n, and the difference of
// two sizes cancels it. The data set is 160 B per point on its own (20
// float64 attributes), so a Result that kept the rows, the splits or a
// per-point record would break the bound many times over.
func TestDriverHeapPerPoint(t *testing.T) {
	const n = 20000
	heldSmall, _ := heldByLightResult(t, n)
	heldLarge, m := heldByLightResult(t, 4*n)
	slope := float64(heldLarge-heldSmall) / float64(3*n)
	bound := 8 + 16*m
	t.Logf("live heap held: %d B at n=%d, %d B at n=%d; %.1f B per point, bound %.1f (m = %.3f)", heldSmall, n, heldLarge, 4*n, slope, bound, m)
	if slope > bound {
		t.Errorf("the Result holds %.1f B per point, more than the %.1f B of its labels and object lists", slope, bound)
	}
}
