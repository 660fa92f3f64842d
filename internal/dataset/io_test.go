package dataset

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// encodeRandom returns the binary form of an n×dim data set of random
// values.
func encodeRandom(t *testing.T, n, dim int) (*Dataset, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n*dim + 1)))
	d := New(dim)
	d.Rows = make([]float64, n*dim)
	for i := range d.Rows {
		d.Rows[i] = rng.Float64()
	}
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return d, buf.Bytes()
}

// readers yields b as a plain reader and as a regular file, the two ways
// ReadBinary learns (or does not learn) the input's size.
func readers(t *testing.T, b []byte) map[string]func() io.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}
	return map[string]func() io.Reader{
		"reader": func() io.Reader { return bytes.NewReader(b) },
		"file": func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		},
	}
}

// TestBinaryRoundTripBlocks reads back a data set of several blocks whose
// value count is no multiple of a block's.
func TestBinaryRoundTripBlocks(t *testing.T) {
	const n, dim = 3001, 7
	if n*dim <= 2*readBlock/8 || n*dim%(readBlock/8) == 0 {
		t.Fatal("data set must span more than two blocks and end mid-block")
	}
	want, b := encodeRandom(t, n, dim)
	for name, open := range readers(t, b) {
		got, err := ReadBinary(open())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Dim != dim || got.N() != n {
			t.Fatalf("%s: shape %d×%d, want %d×%d", name, got.N(), got.Dim, n, dim)
		}
		for i := range want.Rows {
			if got.Rows[i] != want.Rows[i] {
				t.Fatalf("%s: value %d = %v, want %v", name, i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// TestBinaryTruncated cuts a data set in the middle of a value and exactly
// at a block boundary; both must fail, as must trailing bytes in a file.
func TestBinaryTruncated(t *testing.T) {
	_, b := encodeRandom(t, 3001, 7)
	cases := map[string][]byte{
		"mid-value":      b[:len(b)-3],
		"block-boundary": b[:24+readBlock],
		"header-only":    b[:24],
	}
	for name, cut := range cases {
		for via, open := range readers(t, cut) {
			if _, err := ReadBinary(open()); err == nil {
				t.Errorf("%s via %s: truncated data accepted", name, via)
			}
		}
	}
	trailing := append(append([]byte(nil), b...), 0, 0, 0, 0, 0, 0, 0, 0)
	if _, err := ReadBinary(readers(t, trailing)["file"]()); err == nil {
		t.Error("file longer than its header says accepted")
	}
}

// TestBinaryHeaderBeyondInput gives a header that claims 2³⁰ values
// (8 GiB) over an input of two: reading must fail without allocating
// anywhere near the claimed size.
func TestBinaryHeaderBeyondInput(t *testing.T) {
	b := binary.LittleEndian.AppendUint64(nil, binaryMagic)
	b = binary.LittleEndian.AppendUint64(b, 8)     // dim
	b = binary.LittleEndian.AppendUint64(b, 1<<27) // n
	b = append(b, make([]byte, 16)...)
	for via, open := range readers(t, b) {
		r := open()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: header beyond the input accepted", via)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte input", via, grew, len(b))
		}
	}
}
