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

// IntKeyValues fills vals from the output of a job that emits at most one
// record per key prefix+"i" (see IntKeys), 0 ≤ i < len(vals): each record's
// value, a T, goes to vals[i]; a slot no record names keeps what the
// caller put there. A key IntKeys cannot produce, a value of another type
// or a key seen twice is an error, never a silent or out-of-range slot.
func IntKeyValues[T any](out *Output, prefix string, vals []T) error {
	seen := make([]bool, len(vals))
	for _, p := range out.Pairs {
		i, err := ParseIntKey(p.Key, prefix, len(vals))
		if err != nil {
			return err
		}
		v, ok := p.Value.(T)
		if !ok {
			return fmt.Errorf("mr: key %q: want a %T, got %T", p.Key, v, p.Value)
		}
		if seen[i] {
			return fmt.Errorf("mr: key %q seen twice", p.Key)
		}
		vals[i], seen[i] = v, true
	}
	return nil
}

// SingleValue reads the output of a job that emits at most one record,
// under key: ok is false for an empty output, and v is the record's value,
// a T. A record under another key, a second record or a value of another
// type is an error, never a silent zero or a panic.
func SingleValue[T any](out *Output, key string) (v T, ok bool, err error) {
	switch {
	case len(out.Pairs) == 0:
		return v, false, nil
	case len(out.Pairs) > 1:
		return v, false, fmt.Errorf("mr: %d records, want one under %q", len(out.Pairs), key)
	case out.Pairs[0].Key != key:
		return v, false, fmt.Errorf("mr: record under %q, want %q", out.Pairs[0].Key, key)
	}
	if v, ok = out.Pairs[0].Value.(T); !ok {
		return v, false, fmt.Errorf("mr: key %q: want a %T, got %T", key, v, out.Pairs[0].Value)
	}
	return v, true, nil
}

// SplitKey is the key under which a map task emits its split's one
// per-split record (a column or bitmap slab, from Cleanup): "s" and the
// split's ID.
func SplitKey(s *Split) string { return "s" + strconv.Itoa(s.ID) }

// SplitValues returns, in splits order, the per-split records of a
// map-only job over splits, whose output is in split order: the value
// each split's map task emitted under SplitKey, a T of want(split)
// elements. A record out of place, under another key, of another type or
// length, or a split without its one record is an error, never a silent
// or out-of-range slot.
func SplitValues[T ~[]E, E any](out *Output, splits []*Split, want func(*Split) int) ([]T, error) {
	if len(out.Pairs) != len(splits) {
		return nil, fmt.Errorf("mr: %d per-split records for %d splits", len(out.Pairs), len(splits))
	}
	vals := make([]T, len(splits))
	for i, p := range out.Pairs {
		s := splits[i]
		v, ok := p.Value.(T)
		if p.Key != SplitKey(s) || !ok || len(v) != want(s) {
			return nil, fmt.Errorf("mr: split %d: want key %s and %d elements, got %q and %T of %d", s.ID, SplitKey(s), want(s), p.Key, p.Value, len(v))
		}
		vals[i] = v
	}
	return vals, nil
}
