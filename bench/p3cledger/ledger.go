package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"p3cmr/internal/stats"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound, for an
// end-to-end metric, is the share of the baseline median by which it may
// worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the ledger reads: the metric
// catalog, which is the one list of what is reported and in which unit.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// stat summarises one metric's samples: the median, Python-compatible
// exclusive quartiles, and the samples themselves for -compare.
type stat struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, samples []float64) stat {
	q1, q3 := quartiles(samples)
	return stat{Unit: unit, Median: stats.Median(samples), Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// "exclusive" method, so the ledger's spread is the one its readers compute.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the quartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// workloadLedger is one workload's measurement.
type workloadLedger struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	// TracedWallS is the traced rep's timed call, the wall the per-layer
	// fold divides up.
	TracedWallS float64         `json:"traced_wall_s,omitempty"`
	EndToEnd    map[string]stat `json:"end_to_end"`
	PerLayer    map[string]stat `json:"per_layer,omitempty"`
	JobPoints   []jobPoint      `json:"job_points,omitempty"`
}

// ledger is one invocation's measurement. Every engine ran with NumCPU
// task slots.
type ledger struct {
	Seed      int64                      `json:"seed"`
	GoVersion string                     `json:"go_version"`
	NumCPU    int                        `json:"num_cpu"`
	Workloads map[string]*workloadLedger `json:"workloads"`
	CostFit   *costFit                   `json:"cost_model_fit,omitempty"`
}

// costFit is the measured per-job and per-record cost next to the
// constants mr.DefaultCostModel assumes for a 112-slot cluster.
type costFit struct {
	JobOverheadS       float64 `json:"mr.fit.job_overhead_s"`
	SPerMapRecord      float64 `json:"mr.fit.s_per_map_record"`
	Jobs               int     `json:"jobs"`
	ModelJobOverheadS  float64 `json:"model_job_overhead_s"`
	ModelSPerMapRecord float64 `json:"model_s_per_map_record"`
}

// verdict judges B against baseline A on one end-to-end metric. Where the
// quartile spread of either side exceeds the bound, only a B whose every
// sample beats every A sample reads "better"; anything else is
// "unresolved", never "unchanged".
func verdict(m metricSpec, a, b stat) string {
	if a.N == 0 || b.N == 0 {
		return "unresolved"
	}
	sign := 1.0 // > 0 when B is worse
	if m.Better == "higher" {
		sign = -1
	}
	base := math.Abs(a.Median)
	if base == 0 {
		base = 1
	}
	worse := sign * (b.Median - a.Median) / base
	switch {
	case max(a.spread(), b.spread()) > m.Bound:
		if everyBeats(sign, b.Samples, a.Samples) {
			return "better"
		}
		return "unresolved"
	case worse > m.Bound:
		return "worse"
	case -worse > m.Bound:
		return "better"
	default:
		return "unchanged"
	}
}

// everyBeats reports whether every b sample is better than every a sample.
func everyBeats(sign float64, b, a []float64) bool {
	for _, x := range b {
		for _, y := range a {
			if sign*(x-y) >= 0 {
				return false
			}
		}
	}
	return true
}

// compare prints one row per workload × end-to-end metric and reports
// whether any row is "worse".
func compare(spec *benchSpec, a, b *ledger, w io.Writer) bool {
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	anyWorse := false
	for _, name := range names {
		bw := b.Workloads[name]
		if bw == nil {
			fmt.Fprintf(w, "%-16s %-14s %s\n", name, "-", "unresolved (missing in B)")
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := a.Workloads[name].EndToEnd[m.Name], bw.EndToEnd[m.Name]
			v := verdict(m, sa, sb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-16s %-14s A %-12.6g B %-12.6g %-9s spread A %.3f B %.3f bound %g  %s\n",
				name, m.Name, sa.Median, sb.Median, m.Unit, sa.spread(), sb.spread(), m.Bound, v)
		}
	}
	return anyWorse
}

// leastSquares fits y ≈ a + b·x.
func leastSquares(x, y []float64) (a, b float64) {
	n := float64(len(x))
	if n == 0 {
		return 0, 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
	}
	if sxx == 0 {
		return my, 0
	}
	b = sxy / sxx
	return my - b*mx, b
}
