package dataset

// ValueScans is the number of times Validate has scanned d's values.
func ValueScans(d *Dataset) int { return d.scans }
