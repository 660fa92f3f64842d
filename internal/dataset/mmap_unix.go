//go:build unix && (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64)

package dataset

import (
	"os"
	"syscall"
	"unsafe"
)

// mapValues maps the first off+8·values bytes of f private and writable
// and returns the values that start at byte off as float64s, in the
// platform's (little-endian) byte order. It returns nil when the file
// cannot be mapped. The mapping is never unmapped (see ReadBinary).
func mapValues(f *os.File, off int64, values int) []float64 {
	size := off + 8*int64(values)
	if size != int64(int(size)) {
		return nil
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[off])), values)
}
