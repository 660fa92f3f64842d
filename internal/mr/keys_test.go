package mr

import (
	"fmt"
	"testing"
)

func TestParseIntKeyInvertsIntKeys(t *testing.T) {
	for i, key := range IntKeys("c", 12) {
		if got, err := ParseIntKey(key, "c", 12); err != nil || got != i {
			t.Fatalf("ParseIntKey(%q) = %d, %v; want %d", key, got, err, i)
		}
	}
}

// TestParseIntKeyRejectsBadKeys: a key IntKeys(prefix, n) cannot produce
// is an error, never a silent slot.
func TestParseIntKeyRejectsBadKeys(t *testing.T) {
	for _, key := range []string{"", "c", "h3", "c-1", "c5", "c12", "c01", "c+1", "c 1", "c1x", "cc1"} {
		if got, err := ParseIntKey(key, "c", 5); err == nil {
			t.Errorf("ParseIntKey(%q, \"c\", 5) = %d, want an error", key, got)
		}
	}
}

// TestIntKeyValuesRejectsBadRecords feeds the keyed reader records under a
// key out of range or of another form, of the wrong type, or under a key
// seen twice: each is an error, never a panic or a silent slot. A slot no
// record names keeps the caller's value.
func TestIntKeyValuesRejectsBadRecords(t *testing.T) {
	good := func() []Pair { return []Pair{{Key: "c0", Value: 1.5}, {Key: "c2", Value: 2.5}} }
	vals := []float64{-1, -1, -1}
	if err := IntKeyValues(&Output{Pairs: good()}, "c", vals); err != nil || fmt.Sprint(vals) != "[1.5 -1 2.5]" {
		t.Fatalf("good records: %v, %v", vals, err)
	}
	cases := []struct {
		name   string
		mutate func([]Pair) []Pair
	}{
		{"key out of range", func(p []Pair) []Pair { p[1].Key = "c3"; return p }},
		{"negative key", func(p []Pair) []Pair { p[1].Key = "c-1"; return p }},
		{"other prefix", func(p []Pair) []Pair { p[1].Key = "h2"; return p }},
		{"trailing garbage", func(p []Pair) []Pair { p[1].Key = "c2x"; return p }},
		{"wrong type", func(p []Pair) []Pair { p[1].Value = float32(2.5); return p }},
		{"duplicate key", func(p []Pair) []Pair { return append(p, Pair{Key: "c0", Value: 3.5}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := IntKeyValues(&Output{Pairs: c.mutate(good())}, "c", make([]float64, 3)); err == nil {
				t.Fatal("bad records accepted")
			}
		})
	}
}
