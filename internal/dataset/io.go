package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// binaryMagic identifies the library's binary data-set files.
const binaryMagic = 0x50334344 // "P3CD"

// WriteBinary serializes the data set in a compact little-endian format:
// magic, dim, n, then n*dim float64 values, encoded and written in blocks of
// readBlock bytes.
func (d *Dataset) WriteBinary(w io.Writer) error {
	buf := make([]byte, 0, max(24, min(8*len(d.Rows), readBlock)))
	buf = binary.LittleEndian.AppendUint64(buf, binaryMagic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Dim))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.N()))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	for rows := d.Rows; len(rows) > 0; {
		block := rows[:min(len(rows), readBlock/8)]
		rows = rows[len(block):]
		buf = buf[:8*len(block)]
		for k, v := range block {
			binary.LittleEndian.PutUint64(buf[8*k:], math.Float64bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("dataset: write values: %w", err)
		}
	}
	return nil
}

// readBlock is the size in bytes of the blocks ReadBinary decodes.
const readBlock = 64 << 10

// maxValues bounds the values a binary header may declare: 2⁴⁰, or fewer
// where an int cannot count their bytes (32-bit platforms).
const maxValues = min(1<<40, math.MaxInt/8)

// ReadBinary deserializes a data set written by WriteBinary and validates
// it. When r is a regular file (it has a Stat method, as *os.File does) the
// header must account for the file's exact size, checked before any value
// is read, so a corrupt header fails instead of asking for up to 2⁴³ bytes.
//
// On little-endian Unix platforms, an *os.File of such a file that holds
// at least one value, positioned just past its header, is mapped instead of
// read: Rows is a private, copy-on-write mapping of the file's values, with
// cap(Rows) == len(Rows), and Validate's scan faults every page in before
// ReadBinary returns. Writes to Rows (Normalize, Clamp01, a direct write)
// land in private pages and never reach the file, and Append moves the rows
// to the heap. The mapping is never unmapped: every split of the data set
// aliases it, so it lives until the process exits, and a process should
// read one such file. While the data set is in use, replacing the file by a
// rename is safe (the mapping keeps the old file), truncating it kills the
// process with SIGBUS when a row past the new end is touched, and rewriting
// it in place is unsupported.
//
// Any other input (a pipe, a bytes.Reader, no values, a file that cannot be
// mapped) is decoded in blocks of readBlock bytes. A regular file's values
// are allocated up front; any other reader gets room for at most one
// block's values up front, and more as they arrive.
func ReadBinary(r io.Reader) (*Dataset, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if magic := binary.LittleEndian.Uint64(hdr[0:]); magic != binaryMagic {
		return nil, fmt.Errorf("dataset: bad magic %#x", magic)
	}
	// The header's counts are checked as read, before they become ints: at
	// most maxValues values, so n·dim and its size in bytes fit an int on
	// every platform.
	dim64, n64 := binary.LittleEndian.Uint64(hdr[8:]), binary.LittleEndian.Uint64(hdr[16:])
	if dim64 == 0 || dim64 > maxValues || (n64 > 0 && dim64 > maxValues/n64) {
		return nil, fmt.Errorf("dataset: implausible header dim=%d n=%d", dim64, n64)
	}
	dim, n := int(dim64), int(n64)
	values := n * dim
	room := min(values, readBlock/8)
	sized := false
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			if want := int64(len(hdr)) + 8*int64(values); fi.Size() != want {
				return nil, fmt.Errorf("dataset: header says %d×%d values (%d bytes), file holds %d bytes", n, dim, want, fi.Size())
			}
			room, sized = values, true
		}
	}
	d := New(dim)
	if f, ok := r.(*os.File); ok && sized && values > 0 {
		// The size check leaves the values nowhere but right after a header
		// at offset 0, which the decoder would read from here.
		if at, err := f.Seek(0, io.SeekCurrent); err == nil && at == int64(len(hdr)) {
			if d.Rows = mapValues(f, at, values); d.Rows != nil {
				return d, d.Validate()
			}
		}
	}
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
