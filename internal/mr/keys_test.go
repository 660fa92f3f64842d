package mr

import "testing"

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
