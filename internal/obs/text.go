package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"text/tabwriter"
)

// ReportTopK is how many slowest task attempts the text report lists by
// default (p3ctrace -top, and p3crun -report).
const ReportTopK = 10

// WriteText renders an analysis as p3ctrace's text report — the one text
// rendering of a forest, which p3crun -report prints too: a header line,
// then per root span a summary and one column-aligned table per non-empty
// section, with a worker-occupancy gantt when timeline is set.
func WriteText(w io.Writer, a *Analysis, timeline bool) error {
	fmt.Fprintf(w, "trace: %d events, %d spans, %d root span(s)\n", a.Events, a.Spans, len(a.Runs))
	for i := range a.Runs {
		if err := writeRun(w, &a.Runs[i], timeline); err != nil {
			return err
		}
	}
	return nil
}

func writeRun(w io.Writer, r *RunAnalysis, timeline bool) error {
	fmt.Fprintf(w, "\n=== %s %q: %s, %.3f s wall, %.3f s simulated ===\n",
		r.Kind, r.Name, r.Outcome, r.WallSeconds, r.SimulatedSeconds)
	if r.Err != "" {
		fmt.Fprintf(w, "error: %s\n", r.Err)
	}
	fmt.Fprintf(w, "%d task attempts (%d faulted, %d cancelled), %d retries, %d wasted records\n",
		r.TaskAttempts, r.Faults, r.Cancels, r.Retries, inputRecords(r.Wasted))

	// Each section is a column-aligned table, shown when it has rows.
	sections := []struct {
		show   bool
		header string
		fill   func(tw io.Writer)
	}{
		{len(r.Phases) > 0, "phase\twall s\tsim s\tmap in\tshuffled B\tretries\tjobs\ttasks", func(tw io.Writer) {
			for _, p := range r.Phases {
				fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%d\t%d\t%d\t%d\t%d\n",
					p.Name, p.WallSeconds, p.SimulatedSeconds, p.MapIn, p.ShuffledBytes,
					p.Retries, p.Jobs, p.Tasks)
			}
		}},
		{len(r.Jobs) > 0, "job\truns\tmap in\tmap out\tred keys\tred vals\tout\tshuffled B\tretries\twasted rec\tsim s\twall s\ttask p50/p90/p99 s", func(tw io.Writer) {
			for _, j := range r.Jobs {
				c := j.Counters
				fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3f\t%.3f\t%s/%s/%s\n",
					j.Name, j.Runs, c.MapInputRecords, c.MapOutputRecords, c.ReduceInputKeys,
					c.ReduceInputVals, c.OutputRecords, c.ShuffledBytes, c.TaskRetries,
					j.WastedRecords, j.SimulatedSeconds, j.WallSeconds,
					taskSeconds(j.TaskP50S), taskSeconds(j.TaskP90S), taskSeconds(j.TaskP99S))
			}
		}},
		{len(r.CriticalPath) > 0, "critical path\tspan\tstart s\tdur s\tself s", func(tw io.Writer) {
			for _, s := range r.CriticalPath {
				id := s.Name
				if s.Task != "" {
					id += " task " + s.Task
				}
				if s.Phase != "" && s.Kind != "phase" {
					id += " [" + s.Phase + "]"
				}
				fmt.Fprintf(tw, "%s\t%s%s\t%s\t%s\t%s\n",
					s.Kind, strings.Repeat("  ", s.Depth), id,
					taskSeconds(s.StartS), taskSeconds(s.DurationS), taskSeconds(s.SelfSeconds))
			}
		}},
		{len(r.Skew) > 0, "skew (job/phase)\ttasks\tmedian s\tp90 s\tmax s\tmax/median\tslowest", func(tw io.Writer) {
			for _, s := range r.Skew {
				fmt.Fprintf(tw, "%s/%s\t%d\t%s\t%s\t%s\t%.2f\t%s\n",
					s.Job, s.Phase, s.Tasks, taskSeconds(s.MedianS), taskSeconds(s.P90S),
					taskSeconds(s.MaxS), s.Skew, s.SlowestID)
			}
		}},
		{len(r.Stragglers) > 0, "stragglers (job/phase)\tcount\tsim s charged", func(tw io.Writer) {
			for _, s := range r.Stragglers {
				fmt.Fprintf(tw, "%s/%s\t%d\t%.3f\n", s.Job, s.Phase, s.Count, s.Seconds)
			}
		}},
		{len(r.RetryWaste) > 0, "retry waste (job)\tfault attempts\twall s\twasted records", func(tw io.Writer) {
			for _, s := range r.RetryWaste {
				fmt.Fprintf(tw, "%s\t%d\t%s\t%d\n", s.Job, s.FaultAttempts, taskSeconds(s.WallSeconds), s.WastedRecords)
			}
		}},
		{len(r.Workers) > 0, "workers\tattempts\tfaults\twall s\tfault wall s\tstraggler s\twasted records", func(tw io.Writer) {
			for _, s := range r.Workers {
				fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%.3f\t%d\n",
					s.Worker, s.Attempts, s.Faults, taskSeconds(s.WallSeconds), taskSeconds(s.FaultWallSeconds),
					s.StragglerSeconds, s.WastedRecords)
			}
		}},
		{hasTelemetry(r.Workers), "worker telemetry\tsamples\tcpu s\tutil\tpeak rss B\tpeak queue B\tspill B\tsteps", func(tw io.Writer) {
			for _, s := range r.Workers {
				fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.2f\t%d\t%d\t%d\t%s\n",
					s.Worker, s.Samples, s.CPUSeconds, s.Utilization,
					s.PeakRSSBytes, s.PeakQueueBytes, s.SpillBytes, stepSummary(s.StepSeconds))
			}
		}},
		{len(r.Classified) > 0, "stragglers classified\ttask\tworker\twall s\tmedian s\tinput ratio\tutil\tclass", func(tw io.Writer) {
			for _, c := range r.Classified {
				fmt.Fprintf(tw, "%s/%s\t%s\t%s\t%s\t%s\t%.2f\t%.2f\t%s\n",
					c.Job, c.Phase, c.Task, c.Worker, taskSeconds(c.Seconds), taskSeconds(c.MedianS),
					c.InputRatio, c.Utilization, c.Class)
			}
		}},
		{len(r.Convergence) > 0, "convergence\tpoints\tfirst\tlast\ttrend", func(tw io.Writer) {
			for _, c := range r.Convergence {
				fmt.Fprintf(tw, "%s\t%d\t%.6g\t%.6g\t%s\n", c.Name, len(c.Points),
					c.Points[0].Value, c.Points[len(c.Points)-1].Value, sparkline(c.Points))
			}
		}},
	}
	for _, sec := range sections {
		if !sec.show {
			continue
		}
		if err := table(w, sec.header, sec.fill); err != nil {
			return err
		}
	}
	if timeline {
		if err := writeTimeline(w, r); err != nil {
			return err
		}
	}
	if len(r.Slowest) == 0 {
		return nil
	}
	return table(w, "slowest attempts\tjob\tphase\ttask\twall s\toutcome\tstraggler s", func(tw io.Writer) {
		for i, s := range r.Slowest {
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%.3f\n",
				i+1, s.Job, s.Phase, s.Task, taskSeconds(s.Seconds), s.Outcome, s.Straggle)
		}
	})
}

// taskSeconds renders a span's time with three significant digits in
// fixed notation (at least three decimals), so a 30 µs attempt reads
// 0.0000300 rather than a fixed-width zero.
func taskSeconds(s float64) string {
	if s == 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return strconv.FormatFloat(s, 'f', 3, 64)
	}
	d := 2 - int(math.Floor(math.Log10(math.Abs(s))))
	if d < 3 {
		d = 3
	}
	return strconv.FormatFloat(s, 'f', d, 64)
}

// table writes one section: a blank line, the tab-separated header row,
// then the rows fill writes, column-aligned.
func table(w io.Writer, header string, fill func(tw io.Writer)) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\n"+header)
	fill(tw)
	return tw.Flush()
}

// hasTelemetry reports whether any worker row carries sampler- or
// step-derived data (i.e. the trace came from a telemetry-enabled run).
func hasTelemetry(rows []WorkerRow) bool {
	for _, r := range rows {
		if r.Samples > 0 || len(r.StepSeconds) > 0 {
			return true
		}
	}
	return false
}

// stepSummary renders a worker's per-step seconds as "name=1.2s name=0.3s"
// in step-name order.
func stepSummary(steps map[string]float64) string {
	if len(steps) == 0 {
		return "-"
	}
	out := ""
	for i, n := range sortedKeys(steps) {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%.3fs", n, steps[n])
	}
	return out
}

// sparkChars is the 8-level vertical bar ramp of the convergence trend
// column.
var sparkChars = []rune("▁▂▃▄▅▆▇█")

// sparkline renders one metric series as a fixed-height bar ramp, scaled to
// the series' own min..max. A flat series renders as a mid-level line.
func sparkline(pts []ConvergencePoint) string {
	if len(pts) == 0 {
		return ""
	}
	lo, hi := pts[0].Value, pts[0].Value
	for _, p := range pts {
		if p.Value < lo {
			lo = p.Value
		}
		if p.Value > hi {
			hi = p.Value
		}
	}
	var b strings.Builder
	for _, p := range pts {
		i := len(sparkChars) / 2
		if hi > lo {
			i = int((p.Value - lo) / (hi - lo) * float64(len(sparkChars)-1))
		}
		b.WriteRune(sparkChars[i])
	}
	return b.String()
}

// timelineWidth is the column budget of the -timeline gantt.
const timelineWidth = 64

// writeTimeline renders worker-occupancy lanes against the driver critical
// path. Lane characters: 'm' map attempt, 'r' reduce attempt, 'x' faulted
// attempt, 'c' cancelled attempt, '.' idle. The "crit" lane marks each
// critical-path span with the upper-cased initial of its kind (R un, P hase,
// J ob, T ask).
func writeTimeline(w io.Writer, r *RunAnalysis) error {
	if len(r.Timeline) == 0 {
		fmt.Fprintln(w, "\ntimeline: no worker-attributed attempts in this trace")
		return nil
	}
	t0, t1 := r.Timeline[0].Intervals[0].StartS, 0.0
	for _, s := range r.CriticalPath {
		if s.StartS < t0 {
			t0 = s.StartS
		}
		if s.EndS > t1 {
			t1 = s.EndS
		}
	}
	for _, lane := range r.Timeline {
		for _, iv := range lane.Intervals {
			if iv.StartS < t0 {
				t0 = iv.StartS
			}
			if iv.EndS > t1 {
				t1 = iv.EndS
			}
		}
	}
	if t1 <= t0 {
		t1 = t0 + 1e-9
	}
	scale := float64(timelineWidth) / (t1 - t0)
	col := func(ts float64) int {
		c := int((ts - t0) * scale)
		if c < 0 {
			c = 0
		}
		if c > timelineWidth-1 {
			c = timelineWidth - 1
		}
		return c
	}
	fill := func(lane []byte, startS, endS float64, ch byte) {
		lo, hi := col(startS), col(endS)
		for i := lo; i <= hi; i++ {
			lane[i] = ch
		}
	}
	blank := func() []byte {
		lane := make([]byte, timelineWidth)
		for i := range lane {
			lane[i] = '.'
		}
		return lane
	}

	fmt.Fprintf(w, "\ntimeline %.3f .. %.3f s (1 col = %.1f ms; m=map r=reduce x=fault c=cancelled)\n",
		t0, t1, (t1-t0)/float64(timelineWidth)*1000)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	crit := blank()
	for _, s := range r.CriticalPath {
		ch := byte('?')
		if s.Kind != "" {
			ch = s.Kind[0] &^ 0x20 // upper-case initial
		}
		fill(crit, s.StartS, s.EndS, ch)
	}
	fmt.Fprintf(tw, "crit\t%s\n", crit)
	for _, laneRow := range r.Timeline {
		lane := blank()
		for _, iv := range laneRow.Intervals {
			ch := byte('m')
			switch {
			case iv.Outcome == "fault":
				ch = 'x'
			case iv.Outcome == "cancelled":
				ch = 'c'
			case iv.Phase == "reduce":
				ch = 'r'
			}
			fill(lane, iv.StartS, iv.EndS, ch)
		}
		fmt.Fprintf(tw, "%s\t%s\n", laneRow.Worker, lane)
	}
	return tw.Flush()
}
