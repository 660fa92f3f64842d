package mr

// CostModel charges a modeled wall-clock cost to every job, approximating a
// Hadoop deployment: a fixed per-job startup latency (JVM spawn, scheduling,
// HDFS round trips), a map-side compute cost proportional to input records
// divided by the map parallelism, a shuffle cost proportional to bytes moved,
// and a reduce-side cost proportional to reduce input divided by reducer
// count.
//
// The absolute numbers are not meant to match the paper's cluster; the model
// exists so that relative comparisons — "P3C+-MR runs many more jobs than
// P3C+-MR-Light and is therefore slower", "BoW scales with samples per
// reducer" — reproduce the paper's Figure 7 shape deterministically.
type CostModel struct {
	// JobStartupSeconds is charged once per job (Hadoop: ~5–20 s).
	JobStartupSeconds float64
	// SecondsPerMapRecord is the per-record map cost before dividing by
	// MapSlots.
	SecondsPerMapRecord float64
	// SecondsPerShuffleByte models network + disk for the shuffle.
	SecondsPerShuffleByte float64
	// SecondsPerReduceValue is the per-value reduce cost before dividing by
	// the job's reducer count.
	SecondsPerReduceValue float64
	// MapSlots is the modeled cluster-wide map parallelism. Zero means 112
	// (the paper's reducer count, used as slot count too).
	MapSlots int
}

// DefaultCostModel returns a model with Hadoop-flavoured constants.
func DefaultCostModel() CostModel {
	return CostModel{
		JobStartupSeconds:     8,
		SecondsPerMapRecord:   2e-5,
		SecondsPerShuffleByte: 2e-8,
		SecondsPerReduceValue: 1e-5,
		MapSlots:              112,
	}
}

// MapJobsSeconds models the cost of a pipeline of map-dominated jobs over n
// records: per job, one startup charge plus a full map pass divided across
// the map slots. This is the extrapolation form used to project a locally
// measured job count onto paper-sized inputs (e.g. the 10⁹-point run of
// §7.5.2, which no single machine can hold).
func (m CostModel) MapJobsSeconds(jobs int, n float64) float64 {
	slots := m.MapSlots
	if slots <= 0 {
		slots = 112
	}
	return float64(jobs) * (m.JobStartupSeconds + m.SecondsPerMapRecord*n/float64(slots))
}

// Enabled reports whether the model charges anything at all.
func (m CostModel) Enabled() bool {
	return m.JobStartupSeconds != 0 || m.SecondsPerMapRecord != 0 ||
		m.SecondsPerShuffleByte != 0 || m.SecondsPerReduceValue != 0
}

// approxValueBytes estimates the serialized size of a shuffle value for the
// I/O accounting (charged inline at emit time, so shuffle buffers are
// traversed exactly once). It understands the value types the pipeline
// actually ships; anything else is charged a flat 16 bytes.
func approxValueBytes(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 0
	case int:
		return 8
	case int64:
		return 8
	case float64:
		return 8
	case []float64:
		return int64(8 * len(x))
	case []int64:
		return int64(8 * len(x))
	case []uint64:
		return int64(8 * len(x))
	case string:
		return int64(len(x))
	default:
		return 16
	}
}

// jobSeconds computes the modeled cost of one finished job: the successful
// work in c, plus the work of failed task attempts and the straggler delays
// in fault. Re-executed attempts burn real cluster time even though their
// output is discarded, so Figure-7-style runtime-shape experiments see
// retries as slowdown — exactly as Hadoop's error tolerance behaves — while
// the job's Counters stay an exact description of the committed computation.
func (m CostModel) jobSeconds(job *Job, c Counters, fault faultCharge, numReducers int) float64 {
	if !m.Enabled() {
		return 0
	}
	slots := m.MapSlots
	if slots <= 0 {
		slots = 112
	}
	mapPar := len(job.Splits)
	if mapPar > slots {
		mapPar = slots
	}
	if mapPar <= 0 {
		mapPar = 1
	}
	red := numReducers
	if red <= 0 {
		red = 1
	}
	charge := func(c Counters) float64 {
		s := m.SecondsPerMapRecord * float64(c.MapInputRecords) / float64(mapPar)
		s += m.SecondsPerShuffleByte * float64(c.ShuffledBytes)
		s += m.SecondsPerReduceValue * float64(c.ReduceInputVals) / float64(red)
		return s
	}
	return m.JobStartupSeconds + charge(c) + charge(fault.Wasted) + fault.Straggler
}
