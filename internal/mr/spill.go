package mr

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// This file is the multiprocess backend's out-of-core shuffle: map workers
// spill their per-partition buckets to disk as sorted runs ("segments"),
// and reduce workers k-way merge the segments of one partition back into
// the ascending-key, split-order record stream the in-process engine
// produces from RAM. The invariants the fuzz tests pin:
//
//   - A segment's records are grouped by key in ascending key order
//     (byte-wise string order, same as the in-process idSorter), with
//     emission order preserved within each key.
//   - Merging segments in (map task, spill Seq) order yields globally
//     ascending keys, and within a key, records in exactly that segment
//     order — which is the in-process "split order, then emission order"
//     value-order contract.
//
// Segment layout (all integers uvarint unless noted):
//
//   numKeys numRecs
//   numKeys × (keyLen, keyBytes)      — ascending key order
//   numRecs × (keyIdx, tagByte, payload)
//
// keyIdx indexes the segment's key table; scalar tag payloads are 8-byte
// little-endian raw bits (the rec.num lane, so float64/int64/int round-trip
// exactly); tagAny payloads use the wire value codec.

// spillWriter accumulates the segments of one map task attempt in a single
// spill file.
type spillWriter struct {
	path string
	f    *os.File
	w    *bufio.Writer
	off  int64
	segs []segmentRef
	// midSpills counts threshold-triggered spill passes (see spillAll).
	midSpills int
	// enc reuses encoding scratch across segments.
	enc segEncoder
}

// segEncoder is the reusable scratch of encodeSegment.
type segEncoder struct {
	buf   bytes.Buffer
	keys  []string
	spans [][]rec
	sc    groupScratch
}

func newSpillWriter(path string) *spillWriter {
	return &spillWriter{path: path}
}

// spillBucket writes one partition bucket as one segment, grouping it by
// key with groupLocal, which walks ids in ascending key order, so the
// sorted run comes for free. Empty
// buckets write nothing.
func (sw *spillWriter) spillBucket(part, seq int, bucket []rec, tab *keyTab) error {
	if len(bucket) == 0 {
		return nil
	}
	if sw.f == nil {
		f, err := os.Create(sw.path)
		if err != nil {
			return err
		}
		sw.f = f
		sw.w = bufio.NewWriterSize(f, 256<<10)
	}
	e := &sw.enc
	e.buf.Reset()
	e.keys = e.keys[:0]
	e.spans = e.spans[:0]
	// First pass: collect the ascending-key grouping (the spans alias
	// e.sc.recs, valid until the next groupLocal call on e.sc).
	err := groupLocal(bucket, tab, &e.sc, func(id uint32, grouped []rec) error {
		e.keys = append(e.keys, tab.keys[id])
		e.spans = append(e.spans, grouped)
		return nil
	})
	if err != nil {
		return err
	}
	putUvarint(&e.buf, uint64(len(e.keys)))
	putUvarint(&e.buf, uint64(len(bucket)))
	for _, k := range e.keys {
		putUvarint(&e.buf, uint64(len(k)))
		e.buf.WriteString(k)
	}
	for ki, span := range e.spans {
		for i := range span {
			r := &span[i]
			putUvarint(&e.buf, uint64(ki))
			e.buf.WriteByte(byte(r.tag))
			if r.tag == tagAny {
				if err := appendValue(&e.buf, r.val); err != nil {
					return err
				}
			} else {
				putU64(&e.buf, r.num)
			}
		}
	}
	if _, err := sw.w.Write(e.buf.Bytes()); err != nil {
		return err
	}
	sw.segs = append(sw.segs, segmentRef{
		Path:    sw.path,
		Part:    part,
		Seq:     seq,
		Offset:  sw.off,
		Length:  int64(e.buf.Len()),
		Records: int64(len(bucket)),
		Keys:    len(e.keys),
	})
	sw.off += int64(e.buf.Len())
	return nil
}

// spillAll spills every non-empty bucket of st as one segment each (spill
// pass seq), then resets the buckets — keeping the key table, so records
// emitted after the spill keep their interned ids. mid marks a
// threshold-triggered (out-of-core) pass as opposed to the commit-time one.
func (sw *spillWriter) spillAll(st *mapState, seq int, mid bool) error {
	spilled := false
	for part := range st.buckets {
		if err := sw.spillBucket(part, seq, st.buckets[part], &st.tab); err != nil {
			return err
		}
		if len(st.buckets[part]) > 0 {
			spilled = true
			clearRecs(st.buckets[part][:cap(st.buckets[part])])
			st.buckets[part] = st.buckets[part][:0]
		}
	}
	st.bufBytes = 0
	if mid && spilled {
		sw.midSpills++
	}
	return nil
}

// finish flushes and closes the file, returning the segment manifest. A
// writer that never spilled a record removes nothing and returns nil.
func (sw *spillWriter) finish() ([]segmentRef, error) {
	if sw.f == nil {
		return nil, nil
	}
	if err := sw.w.Flush(); err != nil {
		sw.f.Close()
		return nil, err
	}
	if err := sw.f.Close(); err != nil {
		return nil, err
	}
	return sw.segs, nil
}

// abort closes and deletes the spill file after a failed attempt.
func (sw *spillWriter) abort() {
	if sw.f != nil {
		sw.f.Close()
		os.Remove(sw.path)
		sw.f = nil
	}
}

// segReader streams one segment's records in file order (ascending key,
// emission order within key). It holds the segment's key table in memory —
// bounded by distinct keys per spill pass, not records — and one buffered
// reader over the segment's byte range.
type segReader struct {
	br   *bufio.Reader
	keys []string
	// remaining records; cur/curKey hold the last next()'d record.
	n      int64
	cur    rec
	curKey string
	// ord is the segment's global merge order — its index in the
	// (map task, Seq)-sorted segment list — and the within-key tiebreak.
	ord int
}

// openSegment positions a reader over ref's byte range of ra and loads the
// key table.
func openSegment(ra io.ReaderAt, ref segmentRef, ord int) (*segReader, error) {
	br := bufio.NewReaderSize(io.NewSectionReader(ra, ref.Offset, ref.Length), 64<<10)
	numKeys, err := readWireLen(br)
	if err != nil {
		return nil, fmt.Errorf("mr: segment header: %w", err)
	}
	numRecs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("mr: segment header: %w", err)
	}
	if numRecs > uint64(maxFrame) || (numRecs == 0) != (numKeys == 0) || uint64(numKeys) > numRecs {
		return nil, fmt.Errorf("mr: segment header: %d keys / %d records implausible", numKeys, numRecs)
	}
	keys := make([]string, numKeys)
	for i := range keys {
		k, err := readWireString(br)
		if err != nil {
			return nil, fmt.Errorf("mr: segment key table: %w", err)
		}
		if i > 0 && !(keys[i-1] < k) {
			return nil, fmt.Errorf("mr: segment key table not strictly ascending at %d", i)
		}
		keys[i] = k
	}
	return &segReader{br: br, keys: keys, n: int64(numRecs), ord: ord}, nil
}

// next advances to the following record; false means the segment is
// exhausted.
func (s *segReader) next() (bool, error) {
	if s.n <= 0 {
		return false, nil
	}
	s.n--
	ki, err := readWireLen(s.br)
	if err != nil {
		return false, fmt.Errorf("mr: segment record: %w", err)
	}
	if ki >= len(s.keys) {
		return false, fmt.Errorf("mr: segment record key index %d out of range", ki)
	}
	tb, err := s.br.ReadByte()
	if err != nil {
		return false, err
	}
	tag := valueTag(tb)
	r := rec{tag: tag}
	switch tag {
	case tagF64, tagI64, tagInt:
		r.num, err = getU64(s.br)
	case tagAny:
		r.val, err = readValue(s.br)
	default:
		return false, fmt.Errorf("mr: segment record tag 0x%02x unknown", tb)
	}
	if err != nil {
		return false, err
	}
	s.cur = r
	s.curKey = s.keys[ki]
	return true, nil
}

// segHeap orders active readers by (current key, ord): the minimum is the
// next record of the merged stream.
type segHeap []*segReader

func (h segHeap) Len() int { return len(h) }
func (h segHeap) Less(i, j int) bool {
	if h[i].curKey != h[j].curKey {
		return h[i].curKey < h[j].curKey
	}
	return h[i].ord < h[j].ord
}
func (h segHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *segHeap) Push(x any)   { *h = append(*h, x.(*segReader)) }
func (h *segHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// mergeSegments k-way merges the readers (pre-ordered by ord) and calls fn
// once per key with that key's records: keys arrive in globally ascending
// order, records within a key in (ord, file position) order — for segments
// ordered by (map task, spill Seq) that is exactly the in-process "split
// order, then emission order" delivery. batch is the reused per-key record
// buffer; the slice passed to fn is capacity-clamped and only valid during
// the call.
func mergeSegments(readers []*segReader, batch *[]rec, fn func(key string, grouped []rec) error) error {
	h := make(segHeap, 0, len(readers))
	for _, r := range readers {
		ok, err := r.next()
		if err != nil {
			return err
		}
		if ok {
			h = append(h, r)
		}
	}
	heap.Init(&h)
	for len(h) > 0 {
		key := h[0].curKey
		*batch = (*batch)[:0]
		for len(h) > 0 && h[0].curKey == key {
			r := h[0]
			*batch = append(*batch, r.cur)
			ok, err := r.next()
			if err != nil {
				return err
			}
			if ok {
				heap.Fix(&h, 0)
			} else {
				heap.Pop(&h)
			}
		}
		b := *batch
		if err := fn(key, b[:len(b):len(b)]); err != nil {
			return err
		}
	}
	return nil
}

// defaultSpillThreshold is the multiprocess map-side buffer cap when
// Config.SpillThresholdBytes is zero.
const defaultSpillThreshold = 64 << 20

// resolveSpillThreshold maps the config knob to an effective byte limit.
func resolveSpillThreshold(v int64) int64 {
	if v <= 0 {
		return defaultSpillThreshold
	}
	if v > math.MaxInt64-1 {
		return math.MaxInt64
	}
	return v
}
