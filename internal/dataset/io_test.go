package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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

// statFile is a regular file that is not an *os.File: ReadBinary learns its
// size from Stat but decodes it instead of mapping it.
type statFile struct{ *os.File }

// readers yields b as a plain reader, as a regular file ReadBinary decodes
// and as one it maps (where the platform maps): the ways ReadBinary learns,
// or does not learn, the input's size, and both ways it reads a file.
func readers(t *testing.T, b []byte) map[string]func() io.Reader {
	t.Helper()
	path := writeTemp(t, b)
	open := func() *os.File {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	return map[string]func() io.Reader{
		"reader":       func() io.Reader { return bytes.NewReader(b) },
		"file-decoded": func() io.Reader { return statFile{open()} },
		"file":         func() io.Reader { return open() },
	}
}

// writeTemp writes b to a new file in the test's temporary directory and
// returns its path with symbolic links resolved, as /proc/self/maps names
// it.
func writeTemp(t *testing.T, b []byte) string {
	t.Helper()
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "data.bin")
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// mappings counts this process's mappings of the file at path.
func mappings(t *testing.T, path string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.HasSuffix(line, " "+path) {
			count++
		}
	}
	return count
}

// mapsFiles reports whether ReadBinary maps files here and /proc/self/maps
// can show it: Linux on a little-endian machine.
var mapsFiles = runtime.GOOS == "linux" && binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// readFile reads the data set at path through an *os.File and checks that
// it was mapped, where mapsFiles.
func readFile(t *testing.T, path string) *Dataset {
	t.Helper()
	before := 0
	if mapsFiles {
		before = mappings(t, path)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	if mapsFiles && mappings(t, path) != before+1 {
		t.Fatalf("%s: ReadBinary did not map the file", path)
	}
	return d
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

// encode is the binary form of d.
func encode(t testing.TB, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMappedMatchesDecoder reads the same files through every reader and
// holds the mapped rows to the block decoder's bit for bit: −0, subnormals
// and ±MaxFloat64, one row, one attribute, and files that end mid-page and
// span several blocks. Mapped rows have no room to append into.
func TestMappedMatchesDecoder(t *testing.T) {
	edge := []float64{math.Copysign(0, -1), 0, 5e-324, -5e-324, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64, 1, -1.5}
	shapes := []struct{ n, dim int }{{1, 1}, {1, 9}, {9, 1}, {3, 3}, {500, 7}, {3001, 7}}
	for _, sh := range shapes {
		if (24+8*sh.n*sh.dim)%4096 == 0 {
			t.Fatalf("%d×%d ends on a page boundary", sh.n, sh.dim)
		}
		rows := make([]float64, sh.n*sh.dim)
		for i := range rows {
			rows[i] = edge[i%len(edge)]
		}
		b := encode(t, FromRows(sh.dim, rows))
		got := map[string]*Dataset{"mapped": readFile(t, writeTemp(t, b))}
		for name, open := range readers(t, b) {
			d, err := ReadBinary(open())
			if err != nil {
				t.Fatalf("%d×%d via %s: %v", sh.n, sh.dim, name, err)
			}
			got[name] = d
		}
		for name, d := range got {
			if d.Dim != sh.dim || len(d.Rows) != len(rows) {
				t.Fatalf("%d×%d via %s: shape %d×%d", sh.n, sh.dim, name, d.N(), d.Dim)
			}
			for i, v := range rows {
				if math.Float64bits(d.Rows[i]) != math.Float64bits(v) {
					t.Fatalf("%d×%d via %s: value %d = %v, want %v", sh.n, sh.dim, name, i, d.Rows[i], v)
				}
			}
		}
		if m := got["mapped"]; cap(m.Rows) != len(m.Rows) {
			t.Fatalf("%d×%d: mapped rows have cap %d, len %d", sh.n, sh.dim, cap(m.Rows), len(m.Rows))
		}
	}
}

// TestMappedWritesStayPrivate changes mapped rows through Normalize,
// Clamp01, Append and a direct write: the file's bytes stay as written,
// and a fresh read sees them.
func TestMappedWritesStayPrivate(t *testing.T) {
	src := FromRows(3, []float64{-2, 0.5, 7, 3, 1.5, -4, 0.25, 9, 2})
	b := encode(t, src)
	path := writeTemp(t, b)
	for name, change := range map[string]func(*Dataset){
		"normalize": (*Dataset).Normalize,
		"clamp01":   (*Dataset).Clamp01,
		"append":    func(d *Dataset) { d.Append([]float64{8, 8, 8}) },
		"write":     func(d *Dataset) { d.Rows[0], d.Rows[len(d.Rows)-1] = 8, 8 },
	} {
		d := readFile(t, path)
		change(d)
		if slices.Equal(d.Rows, src.Rows) {
			t.Fatalf("%s: the change did not reach the rows", name)
		}
		on, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(on, b) {
			t.Fatalf("%s: the file changed under a write to its rows", name)
		}
		if again := readFile(t, path); again.Rows[0] != src.Rows[0] {
			t.Fatalf("%s: a fresh read sees %v, want %v", name, again.Rows[0], src.Rows[0])
		}
	}
}

// TestMappedSurvivesRename replaces a mapped file by a rename: the rows
// read before keep the old values, a new read gets the new ones.
func TestMappedSurvivesRename(t *testing.T) {
	old, next := FromRows(2, []float64{1, 2, 3, 4}), FromRows(2, []float64{5, 6, 7, 8})
	path := writeTemp(t, encode(t, old))
	d := readFile(t, path)
	tmp := path + ".next"
	if err := os.WriteFile(tmp, encode(t, next), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	for i, v := range old.Rows {
		if d.Rows[i] != v {
			t.Fatalf("after the rename, value %d = %v, want %v", i, d.Rows[i], v)
		}
	}
	if again := readFile(t, path); again.Rows[0] != next.Rows[0] {
		t.Fatalf("a read after the rename sees %v, want %v", again.Rows[0], next.Rows[0])
	}
}

// TestBinaryFileErrorsBeforeMapping gives a regular file a header that
// disagrees with its size, or a bad one: each fails with the size check's
// or the header's error, and nothing of the file is mapped. A file of no
// values reads.
func TestBinaryFileErrorsBeforeMapping(t *testing.T) {
	_, b := encodeRandom(t, 700, 3)
	badMagic := append([]byte(nil), b...)
	badMagic[0]++
	implausible := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(implausible[8:], 0)
	cases := map[string]struct {
		in   []byte
		want string
	}{
		"truncated":   {b[:len(b)-8], "file holds"},
		"oversized":   {append(append([]byte(nil), b...), 0, 0, 0, 0, 0, 0, 0, 0), "file holds"},
		"bad-magic":   {badMagic, "bad magic"},
		"implausible": {implausible, "implausible header"},
		"header-only": {b[:24], "file holds"},
	}
	for name, c := range cases {
		path := writeTemp(t, c.in)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ReadBinary(f)
		f.Close()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one with %q", name, err, c.want)
		}
		if mapsFiles && mappings(t, path) != 0 {
			t.Errorf("%s: the file was mapped", name)
		}
	}
	for via, open := range readers(t, encode(t, New(4))) {
		d, err := ReadBinary(open())
		if err != nil || d.Dim != 4 || d.N() != 0 {
			t.Fatalf("no values via %s: %v, %+v", via, err, d)
		}
	}
}

// writeBinaryPerValue is the one-Write-per-value encoder WriteBinary's
// blocks replaced: the oracle of its bytes.
func writeBinaryPerValue(d *Dataset, w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, h := range [3]uint64{binaryMagic, uint64(d.Dim), uint64(d.N())} {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	buf := make([]byte, 8)
	for _, v := range d.Rows {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TestWriteBinaryBlocksMatchPerValue holds WriteBinary's bytes to the
// per-value encoder's for no values, less than a block, exactly one and two
// blocks, and a count that ends mid-block.
func TestWriteBinaryBlocksMatchPerValue(t *testing.T) {
	const perBlock = readBlock / 8
	for _, values := range []int{0, 1, 5, perBlock, 2 * perBlock, 2*perBlock + 3} {
		d, _ := encodeRandom(t, values, 1)
		d.Rows = append(d.Rows, math.Copysign(0, -1), 5e-324, -math.MaxFloat64)
		var want bytes.Buffer
		if err := writeBinaryPerValue(d, &want); err != nil {
			t.Fatal(err)
		}
		if got := encode(t, d); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%d values: WriteBinary's bytes differ from the per-value encoder's", len(d.Rows))
		}
	}
	if err := FromRows(1, make([]float64, 3*perBlock)).WriteBinary(&failAfter{left: readBlock}); err == nil {
		t.Fatal("a failed write went unreported")
	}
}

// failAfter accepts left bytes, then fails every write.
type failAfter struct{ left int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		return 0, fmt.Errorf("full")
	}
	w.left -= len(p)
	return len(p), nil
}

// BenchmarkReadBinary reads 2¹⁴ × 20 values from a regular file (mapped
// where the platform maps; each mapping stays, as ReadBinary's does) and
// from a bytes.Reader (decoded).
func BenchmarkReadBinary(b *testing.B) {
	d := New(20)
	d.Rows = make([]float64, 20*(1<<14))
	rng := rand.New(rand.NewSource(1))
	for i := range d.Rows {
		d.Rows[i] = rng.Float64()
	}
	raw := encode(b, d)
	path := filepath.Join(b.TempDir(), "data.bin")
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		b.Fatal(err)
	}
	read := map[string]func() (*Dataset, error){
		"file": func() (*Dataset, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return ReadBinary(f)
		},
		"reader": func() (*Dataset, error) { return ReadBinary(bytes.NewReader(raw)) },
	}
	for _, name := range []string{"file", "reader"} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for range b.N {
				if _, err := read[name](); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteBinary encodes 2¹⁴ × 20 values.
func BenchmarkWriteBinary(b *testing.B) {
	d := New(20)
	d.Rows = make([]float64, 20*(1<<14))
	b.SetBytes(int64(24 + 8*len(d.Rows)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := d.WriteBinary(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBinaryHeaderBounds feeds headers whose counts an int cannot hold, or
// whose product passes maxValues: each fails on the header, before a value
// is read or a byte allocated, on 32-bit platforms as on 64-bit ones.
func TestBinaryHeaderBounds(t *testing.T) {
	for _, c := range []struct{ dim, n uint64 }{
		{0, 5},
		{1 << 63, 1},
		{1, 1 << 63},
		{4, 1 << 62},
		{maxValues + 1, 1},
		{1, maxValues + 1},
		{maxValues/2 + 1, 2},
	} {
		var hdr [24]byte
		binary.LittleEndian.PutUint64(hdr[0:], binaryMagic)
		binary.LittleEndian.PutUint64(hdr[8:], c.dim)
		binary.LittleEndian.PutUint64(hdr[16:], c.n)
		if _, err := ReadBinary(bytes.NewReader(hdr[:])); err == nil || !strings.Contains(err.Error(), "implausible header") {
			t.Errorf("dim=%d n=%d: error %v, want an implausible header", c.dim, c.n, err)
		}
	}
}
