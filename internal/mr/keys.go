package mr

import (
	"fmt"
	"strconv"
	"strings"
)

// IntKeys returns the key table [prefix+"0", prefix+"1", ..., prefix+(n-1)]
// — the precomputed form of the fmt.Sprintf("%s%d", prefix, i) keys the
// pipeline's per-cluster and per-attribute jobs emit. Building the strings
// once per task (typically in a mapper's Setup) keeps per-emission key
// construction off the hot path, where the hotpath analyzer flags it.
func IntKeys(prefix string, n int) []string {
	keys := make([]string, n)
	buf := make([]byte, 0, len(prefix)+20)
	for i := range keys {
		buf = append(buf[:0], prefix...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		keys[i] = string(buf)
	}
	return keys
}

// ParseIntKey is the inverse of IntKeys(prefix, n): it returns i for the
// key prefix+"i" with 0 ≤ i < n, and an error for any other key, so a
// malformed or out-of-range key cannot land silently in some slot.
func ParseIntKey(key, prefix string, n int) (int, error) {
	rest, ok := strings.CutPrefix(key, prefix)
	i, err := strconv.Atoi(rest)
	if !ok || err != nil || i < 0 || i >= n || strconv.Itoa(i) != rest {
		return 0, fmt.Errorf("mr: bad key %q: want %s<i> with 0 <= i < %d", key, prefix, n)
	}
	return i, nil
}
