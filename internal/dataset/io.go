package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
	"slices"
	"strconv"
	"strings"
)

// binaryMagic identifies the library's binary data-set files.
const binaryMagic = 0x50334344 // "P3CD"

// WriteBinary serializes the data set in a compact little-endian format:
// magic, dim, n, then n*dim float64 values.
func (d *Dataset) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := [3]uint64{binaryMagic, uint64(d.Dim), uint64(d.N())}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return fmt.Errorf("dataset: write header: %w", err)
		}
	}
	buf := make([]byte, 8)
	for _, v := range d.Rows {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("dataset: write values: %w", err)
		}
	}
	return bw.Flush()
}

// readBlock is the size in bytes of the blocks ReadBinary decodes.
const readBlock = 64 << 10

// ReadBinary deserializes a data set written by WriteBinary, decoding the
// values in blocks of readBlock bytes. When r is a regular file (it has a
// Stat method, as *os.File does) the header must account for the file's
// exact size, checked before the values are allocated, so a corrupt header
// fails instead of asking for up to 2⁴³ bytes. Any other reader gets room
// for at most one block's values up front, and more as they arrive.
func ReadBinary(r io.Reader) (*Dataset, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if magic := binary.LittleEndian.Uint64(hdr[0:]); magic != binaryMagic {
		return nil, fmt.Errorf("dataset: bad magic %#x", magic)
	}
	dim, n := int(binary.LittleEndian.Uint64(hdr[8:])), int(binary.LittleEndian.Uint64(hdr[16:]))
	if dim <= 0 || n < 0 || (n > 0 && dim > (1<<40)/n) {
		return nil, fmt.Errorf("dataset: implausible header dim=%d n=%d", dim, n)
	}
	values := n * dim
	room := min(values, readBlock/8)
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			if want := int64(len(hdr)) + 8*int64(values); fi.Size() != want {
				return nil, fmt.Errorf("dataset: header says %d×%d values (%d bytes), file holds %d bytes", n, dim, want, fi.Size())
			}
			room = values
		}
	}
	d := New(dim)
	d.Rows = make([]float64, 0, room)
	buf := make([]byte, min(8*values, readBlock))
	for left := values; left > 0; {
		m := min(left, readBlock/8)
		b := buf[:8*m]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("dataset: read values: %w", err)
		}
		at := len(d.Rows)
		d.Rows = slices.Grow(d.Rows, m)[:at+m]
		dst := d.Rows[at:]
		for k := range dst {
			dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:]))
		}
		left -= m
	}
	return d, d.Validate()
}

// WriteCSV writes the data set as comma-separated rows without a header.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	n := d.N()
	for i := 0; i < n; i++ {
		row := d.Row(i)
		for j, v := range row {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses comma-separated rows. All rows must share one width; blank
// lines are skipped.
func ReadCSV(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var d *Dataset
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if d == nil {
			d = New(len(fields))
		} else if len(fields) != d.Dim {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", lineNo, len(fields), d.Dim)
		}
		for _, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
			}
			d.Rows = append(d.Rows, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: scan: %w", err)
	}
	if d == nil {
		return nil, fmt.Errorf("dataset: empty CSV input")
	}
	return d, d.Validate()
}
