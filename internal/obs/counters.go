package obs

import "fmt"

// Counters is the fixed MapReduce counter vector accumulated per job (and
// carried, as deltas, on span events). It lives in obs — below the engine —
// so trace events can embed it without an import cycle; `mr.Counters` is an
// alias of this type.
type Counters struct {
	MapInputRecords  int64 `json:"mapIn,omitempty"`
	MapOutputRecords int64 `json:"mapOut,omitempty"`
	ReduceInputKeys  int64 `json:"redKeys,omitempty"`
	ReduceInputVals  int64 `json:"redVals,omitempty"`
	OutputRecords    int64 `json:"out,omitempty"`
	ShuffledBytes    int64 `json:"shuffledB,omitempty"`
	TaskRetries      int64 `json:"retries,omitempty"`
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.MapInputRecords += other.MapInputRecords
	c.MapOutputRecords += other.MapOutputRecords
	c.ReduceInputKeys += other.ReduceInputKeys
	c.ReduceInputVals += other.ReduceInputVals
	c.OutputRecords += other.OutputRecords
	c.ShuffledBytes += other.ShuffledBytes
	c.TaskRetries += other.TaskRetries
}

// Sub subtracts other from c field-wise — the delta between two engine
// snapshots (e.g. the counters one pipeline phase contributed).
func (c *Counters) Sub(other Counters) {
	c.MapInputRecords -= other.MapInputRecords
	c.MapOutputRecords -= other.MapOutputRecords
	c.ReduceInputKeys -= other.ReduceInputKeys
	c.ReduceInputVals -= other.ReduceInputVals
	c.OutputRecords -= other.OutputRecords
	c.ShuffledBytes -= other.ShuffledBytes
	c.TaskRetries -= other.TaskRetries
}

// String summarizes every counter field.
func (c Counters) String() string {
	return fmt.Sprintf("mapIn=%d mapOut=%d redKeys=%d redVals=%d out=%d shuffledB=%d retries=%d",
		c.MapInputRecords, c.MapOutputRecords, c.ReduceInputKeys,
		c.ReduceInputVals, c.OutputRecords, c.ShuffledBytes, c.TaskRetries)
}
