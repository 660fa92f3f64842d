package mr

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// fuzzRecs derives a deterministic record stream from fuzz bytes: each
// input byte becomes one record whose key, value type and payload are bit
// mixes of the byte, its position and the mix seed — covering boxed
// float64, int64 and int scalars, []float64 slices and strings.
func fuzzRecs(data []byte, mix uint64, tab *keyTab) []rec {
	bucket := make([]rec, 0, len(data))
	for i, b := range data {
		key := fmt.Sprintf("k%02x", b%37)
		x := mix ^ (uint64(b) << 8) ^ uint64(i)
		var v any
		switch b % 5 {
		case 0:
			v = float64(x) * 0.5
		case 1:
			v = int64(x) - 1000
		case 2:
			v = int(b) * -7
		case 3:
			v = []float64{float64(b), float64(i)}
		default:
			v = fmt.Sprintf("v%d", x%100)
		}
		bucket = append(bucket, rec{key: tab.intern(key, 1), val: v})
	}
	return bucket
}

// boxedStream flattens recs to comparable (key, value) pairs.
func boxedStream(tab *keyTab, recs []rec) []Pair {
	out := make([]Pair, 0, len(recs))
	for _, r := range recs {
		out = append(out, Pair{Key: tab.keys[r.key], Value: r.val})
	}
	return out
}

// FuzzSpillRoundTrip pins the spill segment codec: any record stream must
// round-trip through spillBucket → openSegment/next with (a) the segment's
// key order ascending, (b) emission order preserved within each key, and
// (c) every payload — including the interned-key table handoff — decoding
// to the identical boxed value.
func FuzzSpillRoundTrip(f *testing.F) {
	f.Add([]byte("hello spill"), uint64(3))
	f.Add([]byte{0, 1, 2, 3, 4, 250, 251, 252}, uint64(1<<40))
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, mix uint64) {
		var tab keyTab
		bucket := fuzzRecs(data, mix, &tab)

		// Expected stream: the bucket grouped by ascending key with
		// emission order kept inside each key — groupLocal's contract.
		var sc groupScratch
		var want []Pair
		err := groupLocal(bucket, &tab, &sc, func(id uint32, grouped []rec) error {
			want = append(want, boxedStream(&tab, grouped)...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(t.TempDir(), "fuzz.spill")
		sw := newSpillWriter(path)
		if err := sw.spillBucket(0, 0, bucket, &tab); err != nil {
			t.Fatal(err)
		}
		segs, err := sw.finish()
		if err != nil {
			t.Fatal(err)
		}
		if len(bucket) == 0 {
			if segs != nil {
				t.Fatalf("empty bucket produced segments %+v", segs)
			}
			return
		}
		if len(segs) != 1 || segs[0].Records != int64(len(bucket)) {
			t.Fatalf("segment manifest %+v, want 1 segment with %d records", segs, len(bucket))
		}
		fl, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Close()
		sr, err := openSegment(fl, segs[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []Pair
		prevKey := ""
		for {
			ok, err := sr.next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if len(got) > 0 && sr.curKey < prevKey {
				t.Fatalf("segment keys not ascending: %q after %q", sr.curKey, prevKey)
			}
			prevKey = sr.curKey
			got = append(got, Pair{Key: sr.curKey, Value: sr.cur.val})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, want)
		}
	})
}

// FuzzKWayMergeOrder pins the merge contract out-of-core correctness rests
// on: merging any set of sorted runs yields globally ascending keys, and
// within one key, records in run order (ord) with file order preserved
// inside each run — the "split order, then emission order" value rule.
// Each record's int64 payload encodes its (run, position) provenance, so
// order violations are directly visible in the payload stream.
func FuzzKWayMergeOrder(f *testing.F) {
	f.Add([]byte("merge me"), uint8(3))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(1))
	f.Add([]byte{42}, uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, runsN uint8) {
		k := int(runsN%8) + 1
		var tab keyTab
		type provRec struct {
			key  string
			prov int64
		}
		// Slice data into k runs; record (run, pos) provenance per record.
		runs := make([][]rec, k)
		expected := make(map[string][]int64) // key → provenance in expected order
		var allKeys []string
		seen := map[string]bool{}
		perRun := make([][]provRec, k)
		for i, b := range data {
			run := i % k
			key := fmt.Sprintf("k%02x", b%29)
			prov := int64(run)<<32 | int64(len(runs[run]))
			id := tab.intern(key, 1)
			runs[run] = append(runs[run], rec{key: id, val: prov})
			perRun[run] = append(perRun[run], provRec{key: key, prov: prov})
			if !seen[key] {
				seen[key] = true
				allKeys = append(allKeys, key)
			}
		}
		sort.Strings(allKeys)
		// Expected value order per key: run index ascending, then position.
		for _, key := range allKeys {
			for run := 0; run < k; run++ {
				for _, pr := range perRun[run] {
					if pr.key == key {
						expected[key] = append(expected[key], pr.prov)
					}
				}
			}
		}

		path := filepath.Join(t.TempDir(), "fuzz.spill")
		sw := newSpillWriter(path)
		for run := 0; run < k; run++ {
			if err := sw.spillBucket(0, run, runs[run], &tab); err != nil {
				t.Fatal(err)
			}
		}
		segs, err := sw.finish()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			return
		}
		fl, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fl.Close()
		readers := make([]*segReader, 0, len(segs))
		for ord, ref := range segs {
			sr, err := openSegment(fl, ref, ord)
			if err != nil {
				t.Fatal(err)
			}
			readers = append(readers, sr)
		}
		var batch []rec
		var gotKeys []string
		got := make(map[string][]int64)
		err = mergeSegments(readers, &batch, func(key string, grouped []rec) error {
			if n := len(gotKeys); n > 0 && !(gotKeys[n-1] < key) {
				t.Fatalf("merged keys not strictly ascending: %q after %q", key, gotKeys[n-1])
			}
			gotKeys = append(gotKeys, key)
			for _, r := range grouped {
				got[key] = append(got[key], r.val.(int64))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotKeys, allKeys) {
			t.Fatalf("merged key set %v, want %v", gotKeys, allKeys)
		}
		for _, key := range allKeys {
			if !reflect.DeepEqual(got[key], expected[key]) {
				t.Fatalf("key %q: value order %v, want %v (run<<32|pos)", key, got[key], expected[key])
			}
		}
	})
}
