//go:build !(unix && (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64))

package dataset

import "os"

// mapValues never maps on this platform (not Unix, or big-endian), so
// ReadBinary decodes every input.
func mapValues(*os.File, int64, int) []float64 { return nil }
