package mr

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"p3cmr/internal/obs"
)

// This file is the multiprocess backend's wire layer: length-prefixed
// control frames between the driver and its worker processes, and the
// value codec shared by those frames and the spill files (spill.go).
//
// Framing: one byte of frame type, a little-endian uint32 payload length,
// then a gob-encoded payload struct. gob state is per-frame (each frame is
// a fresh encoder), so a frame is decodable in isolation — which is what
// lets the driver treat a half-written final frame from a SIGKILLed worker
// as a clean EOF instead of stream corruption.
//
// Values: pair and record payloads do NOT ride gob. They use a hand-rolled
// codec (appendValue/readValue) that writes one kind byte per value, with
// distinct kinds for float64, int64 and int, so a boxed scalar round-trips
// to the exact dynamic type the in-process engine would deliver — the
// bit-identity contract. Types outside the built-in kinds fall back to gob
// and must be registered with RegisterWireValue.

// Frame types, driver→worker (ctl) and worker→driver (results).
const (
	// fHello: worker → driver, once at startup. Payload helloFrame.
	fHello byte = 1 + iota
	// fJob: driver → worker, once per worker before its first task. Payload
	// jobFrame.
	fJob
	// fMapTask: driver → worker. Payload mapTaskFrame.
	fMapTask
	// fReduceTask: driver → worker. Payload reduceTaskFrame.
	fReduceTask
	// fPairs: worker → driver, zero or more before a done frame. Payload
	// pairsFrame (codec-encoded pairs, not gob).
	fPairs
	// fMapDone: worker → driver, successful map attempt. Payload
	// mapDoneFrame.
	fMapDone
	// fReduceDone: worker → driver, successful reduce attempt. Payload
	// doneFrame.
	fReduceDone
	// fDying: worker → driver, the attempt's partial counters, flushed
	// immediately before the worker SIGKILLs itself at an injected kill
	// point. The driver reads it, charges the counters as wasted work, and
	// retries — exactly like an in-process injected failure.
	fDying
	// fTaskErr: worker → driver, a real (non-injected) task error. The
	// worker survives; the driver fails the job without retry.
	fTaskErr
	// fShutdown: driver → worker, clean exit request.
	fShutdown
	// fTelemetry: worker → driver, buffered worker-trace events. Sent only
	// when the driver enabled telemetry (telemetryEnv): once right after
	// hello (the TelClock alignment reading) and then at task boundaries,
	// immediately before a done/dying/error frame. Payload telemetryFrame.
	// Appended after fShutdown so the preceding frame-type bytes — the PR 7
	// wire format — are untouched.
	fTelemetry
)

// maxFrame bounds a frame payload; a length beyond it means a corrupt
// stream, not a huge frame (out-of-core data rides spill files, not
// frames).
const maxFrame = 1 << 30

type helloFrame struct {
	PID int
}

type jobFrame struct {
	Name        string
	Impl        string
	Spec        []byte
	NumReducers int
	// NB is the shuffle bucket count (1 for map-only jobs).
	NB      int
	MapOnly bool
	// HasCombiner is retired: the engine has no combiner, so it is always
	// false. It stays because the protocol is append-only (wire.lock).
	HasCombiner bool
	// Poison forwards Config.DebugPoisonPools into the worker's pools.
	Poison   bool
	SpillDir string
	// SpillLimit is the mid-task spill threshold in buffered record bytes.
	SpillLimit int64
	// Cache ships the distributed cache: keys sorted ascending, values
	// encoded with the wire value codec (CacheVals[i] belongs to
	// CacheKeys[i]).
	CacheKeys []string
	CacheVals [][]byte
}

type mapTaskFrame struct {
	// Task is the split ID (the task identity for spans and fault plans).
	Task    int
	Attempt int
	Offset  int
	Dim     int
	Rows    []float64
	// KillAt, when >= 0, makes the worker SIGKILL itself immediately before
	// record KillAt — the process-boundary realization of an in-process
	// injected map failure at the same position. Decided by the driver so
	// the fault plan stays a pure driver-side function.
	KillAt int
	// CombineKill is retired: the engine has no combiner, so it is always
	// false. It stays because the protocol is append-only (wire.lock).
	CombineKill bool
}

// segmentRef locates one sorted run of one partition inside a spill file.
type segmentRef struct {
	Path string
	Part int
	// Seq is the spill pass within the attempt (mid-task spills count up;
	// the commit-time spill is last). Within a (task, partition), segments
	// must merge in Seq order to preserve emission order.
	Seq     int
	Offset  int64
	Length  int64
	Records int64
	Keys    int
}

type mapDoneFrame struct {
	Counters Counters
	Segments []segmentRef
	// MidSpills counts threshold-triggered spill passes (spills that
	// happened before task commit — the out-of-core proof the spill
	// demonstration test asserts on).
	MidSpills int
}

type reduceTaskFrame struct {
	// Task is the partition index.
	Task    int
	Attempt int
	// KillAt, when >= 0, kills the worker once `consumed >= KillAt` input
	// records have been consumed, checked before each key group — the same
	// threshold rule as the in-process reduce fault site.
	KillAt int
	// Segments are every map task's runs for this partition, ordered by
	// (map task, Seq): the merge preserves that order within each key.
	Segments []segmentRef
	// TotalRecords is the summed record count. Workers no longer read it;
	// it stays because frames are append-only.
	TotalRecords int64
}

type doneFrame struct {
	Counters Counters
}

type dyingFrame struct {
	Counters Counters
}

type errFrame struct {
	Msg string
}

// telemetryFrame carries a worker's drained trace buffer. Timestamps inside
// the events are worker-epoch seconds; the driver aligns them using the
// TelClock reading it captured at handshake. No existing frame struct grows
// a field for telemetry — gob ships a struct's full type descriptor on
// first encode, so even a zero-valued addition would change the bytes of a
// telemetry-off stream.
type telemetryFrame struct {
	Events []obs.TelemetryEvent
}

type pairsFrame struct {
	// Data is codec-encoded pairs: uvarint count, then per pair a uvarint
	// key length, key bytes, and an appendValue-encoded value.
	Data []byte
}

// writeFrame gob-encodes payload (nil for bodyless frames) and writes one
// length-prefixed frame. The caller owns flushing.
func writeFrame(w io.Writer, typ byte, payload any) error {
	var buf bytes.Buffer
	if payload != nil {
		if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
			return fmt.Errorf("mr: encode frame 0x%02x: %w", typ, err)
		}
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(buf.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// readFrame reads one frame. io.EOF (clean boundary) passes through
// unwrapped so callers can distinguish a dead peer from a corrupt stream;
// a partial header or body surfaces as io.ErrUnexpectedEOF.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("mr: frame 0x%02x length %d exceeds limit", hdr[0], n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return hdr[0], data, nil
}

// decodeFrame decodes a frame payload into v.
func decodeFrame(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// Wire value codec ---------------------------------------------------------

// Value kind bytes. The set mirrors approxValueBytes' known types plus the
// common small scalars; everything else is wGob.
const (
	wNil byte = iota
	wF64
	wI64
	wInt
	wStr
	wBool
	wF64s
	wI64s
	wU64s
	wInts
	wStrs
	wGob
)

// RegisterWireValue registers a concrete type for the gob fallback lane of
// the multiprocess wire codec. Jobs that emit (or cache) values outside the
// built-in lanes — float64, int64, int, string, bool, and slices of
// float64/int64/uint64/int/string — must register each such concrete type
// once (typically in an init function, so driver and re-exec'd workers
// agree) before running on the multiprocess backend.
func RegisterWireValue(v any) { gob.Register(v) }

// appendValue encodes one boxed value into buf.
func appendValue(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case nil:
		buf.WriteByte(wNil)
	case float64:
		buf.WriteByte(wF64)
		putU64(buf, math.Float64bits(x))
	case int64:
		buf.WriteByte(wI64)
		putU64(buf, uint64(x))
	case int:
		buf.WriteByte(wInt)
		putU64(buf, uint64(int64(x)))
	case string:
		buf.WriteByte(wStr)
		putUvarint(buf, uint64(len(x)))
		buf.WriteString(x)
	case bool:
		buf.WriteByte(wBool)
		if x {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	case []float64:
		buf.WriteByte(wF64s)
		putUvarint(buf, uint64(len(x)))
		for _, f := range x {
			putU64(buf, math.Float64bits(f))
		}
	case []int64:
		buf.WriteByte(wI64s)
		putUvarint(buf, uint64(len(x)))
		for _, i := range x {
			putU64(buf, uint64(i))
		}
	case []uint64:
		buf.WriteByte(wU64s)
		putUvarint(buf, uint64(len(x)))
		for _, u := range x {
			putU64(buf, u)
		}
	case []int:
		buf.WriteByte(wInts)
		putUvarint(buf, uint64(len(x)))
		for _, i := range x {
			putU64(buf, uint64(int64(i)))
		}
	case []string:
		buf.WriteByte(wStrs)
		putUvarint(buf, uint64(len(x)))
		for _, s := range x {
			putUvarint(buf, uint64(len(s)))
			buf.WriteString(s)
		}
	default:
		var gb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(&v); err != nil {
			return fmt.Errorf("mr: wire-encode %T: %w (register it with mr.RegisterWireValue)", v, err)
		}
		buf.WriteByte(wGob)
		putUvarint(buf, uint64(gb.Len()))
		buf.Write(gb.Bytes())
	}
	return nil
}

// wireReader is what readValue consumes: both spill-file readers
// (bufio.Reader) and in-memory frames (bytes.Reader) satisfy it.
type wireReader interface {
	io.Reader
	io.ByteReader
}

// readValue decodes one appendValue-encoded value.
func readValue(r wireReader) (any, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	switch kind {
	case wNil:
		return nil, nil
	case wF64:
		u, err := getU64(r)
		return math.Float64frombits(u), err
	case wI64:
		u, err := getU64(r)
		return int64(u), err
	case wInt:
		u, err := getU64(r)
		return int(int64(u)), err
	case wStr:
		return readWireString(r)
	case wBool:
		b, err := r.ReadByte()
		return b != 0, err
	case wF64s:
		n, err := readWireLen(r)
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			u, err := getU64(r)
			if err != nil {
				return nil, err
			}
			out[i] = math.Float64frombits(u)
		}
		return out, nil
	case wI64s:
		n, err := readWireLen(r)
		if err != nil {
			return nil, err
		}
		out := make([]int64, n)
		for i := range out {
			u, err := getU64(r)
			if err != nil {
				return nil, err
			}
			out[i] = int64(u)
		}
		return out, nil
	case wU64s:
		n, err := readWireLen(r)
		if err != nil {
			return nil, err
		}
		out := make([]uint64, n)
		for i := range out {
			u, err := getU64(r)
			if err != nil {
				return nil, err
			}
			out[i] = u
		}
		return out, nil
	case wInts:
		n, err := readWireLen(r)
		if err != nil {
			return nil, err
		}
		out := make([]int, n)
		for i := range out {
			u, err := getU64(r)
			if err != nil {
				return nil, err
			}
			out[i] = int(int64(u))
		}
		return out, nil
	case wStrs:
		n, err := readWireLen(r)
		if err != nil {
			return nil, err
		}
		out := make([]string, n)
		for i := range out {
			s, err := readWireString(r)
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	case wGob:
		n, err := readWireLen(r)
		if err != nil {
			return nil, err
		}
		gb := make([]byte, n)
		if _, err := io.ReadFull(r, gb); err != nil {
			return nil, err
		}
		var v any
		if err := gob.NewDecoder(bytes.NewReader(gb)).Decode(&v); err != nil {
			return nil, fmt.Errorf("mr: wire-decode gob value: %w", err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("mr: wire value kind 0x%02x unknown", kind)
	}
}

func putU64(buf *bytes.Buffer, u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	buf.Write(b[:])
}

func getU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func putUvarint(buf *bytes.Buffer, u uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], u)
	buf.Write(b[:n])
}

// readWireLen reads a uvarint element count, bounded so a corrupt (or
// fuzzed) stream cannot provoke a giant allocation before ReadFull fails.
func readWireLen(r io.ByteReader) (int, error) {
	u, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if u > maxFrame {
		return 0, fmt.Errorf("mr: wire length %d exceeds limit", u)
	}
	return int(u), nil
}

func readWireString(r wireReader) (string, error) {
	n, err := readWireLen(r)
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// encodePairs encodes output pairs for a pairsFrame.
func encodePairs(pairs []Pair) ([]byte, error) {
	var buf bytes.Buffer
	putUvarint(&buf, uint64(len(pairs)))
	for i := range pairs {
		putUvarint(&buf, uint64(len(pairs[i].Key)))
		buf.WriteString(pairs[i].Key)
		if err := appendValue(&buf, pairs[i].Value); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// decodePairs appends a pairsFrame's pairs to dst.
func decodePairs(dst []Pair, data []byte) ([]Pair, error) {
	r := bytes.NewReader(data)
	n, err := readWireLen(r)
	if err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		k, err := readWireString(r)
		if err != nil {
			return dst, err
		}
		v, err := readValue(r)
		if err != nil {
			return dst, err
		}
		dst = append(dst, Pair{Key: k, Value: v})
	}
	return dst, nil
}
