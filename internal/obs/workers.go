package obs

import (
	"fmt"
	"io"
	"sort"
)

// workerAgg accumulates one worker process over the forest's lifetime —
// every task-attempt closing, step closing and point event that carries
// its name, whether or not the span is still retained.
type workerAgg struct {
	attempts, ok, faults, cancels, errors int64
	busySeconds                           float64
	stragglerSeconds                      float64
	stepSeconds                           map[string]float64
	wasted                                Counters

	samples         int64
	last            ResourceSample
	peakRSS, peakQB int64
}

func (f *Forest) worker(name string) *workerAgg {
	a := f.workers[name]
	if a == nil {
		a = &workerAgg{stepSeconds: make(map[string]float64)}
		f.workers[name] = a
	}
	return a
}

// foldWorkerEnd adds a worker-attributed closing to its worker's totals.
// Events without a Worker (driver-side spans, in-process execution) carry
// nothing to attribute. Caller holds f.mu.
func (f *Forest) foldWorkerEnd(e End) {
	if e.Worker == "" {
		return
	}
	a := f.worker(e.Worker)
	switch e.Kind {
	case KindTask:
		a.attempts++
		a.busySeconds += e.RealSeconds
		a.wasted.Add(e.Wasted)
		switch e.Outcome {
		case OutcomeOK:
			a.ok++
		case OutcomeFault:
			a.faults++
		case OutcomeCancelled:
			a.cancels++
		case OutcomeError:
			a.errors++
		}
	case KindStep:
		a.stepSeconds[e.Name] += e.RealSeconds
	}
}

// foldWorkerPoint adds a worker-attributed point to its worker's totals.
// Caller holds f.mu.
func (f *Forest) foldWorkerPoint(p Point) {
	if p.Worker == "" {
		return
	}
	a := f.worker(p.Worker)
	switch p.Kind {
	case PointSample:
		if p.Sample == nil {
			return
		}
		a.samples++
		a.last = *p.Sample
		a.peakRSS = max(a.peakRSS, p.Sample.RSSBytes)
		a.peakQB = max(a.peakQB, p.Sample.QueueBytes)
	case PointStraggler:
		a.stragglerSeconds += p.Seconds
	}
}

// WorkerSnapshot is the lifetime state of one worker process — the
// /workers payload element.
type WorkerSnapshot struct {
	Worker           string             `json:"worker"`
	Attempts         int64              `json:"attempts"`
	OK               int64              `json:"ok"`
	Faults           int64              `json:"faults"`
	Cancelled        int64              `json:"cancelled"`
	Errors           int64              `json:"errors"`
	BusySeconds      float64            `json:"busy_s"`
	StragglerSeconds float64            `json:"straggler_s,omitempty"`
	StepSeconds      map[string]float64 `json:"step_s,omitempty"`
	Samples          int64              `json:"samples"`
	CPUSeconds       float64            `json:"cpu_s"`
	RSSBytes         int64              `json:"rss_b"`
	PeakRSSBytes     int64              `json:"peak_rss_b"`
	// SpillBytes is the spill-directory size in the worker's last resource
	// sample (a gauge: it drops when merged runs are removed). p3ctrace's
	// WorkerRow.SpillBytes is the high-water mark instead.
	SpillBytes     int64    `json:"spill_b"`
	QueueBytes     int64    `json:"queue_b"`
	PeakQueueBytes int64    `json:"peak_queue_b"`
	Wasted         Counters `json:"wasted"`
}

// Workers returns every worker's lifetime state, sorted by worker name.
func (f *Forest) Workers() []WorkerSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]WorkerSnapshot, 0, len(f.workers))
	for name, a := range f.workers {
		snap := WorkerSnapshot{
			Worker: name, Attempts: a.attempts, OK: a.ok, Faults: a.faults,
			Cancelled: a.cancels, Errors: a.errors,
			BusySeconds: a.busySeconds, StragglerSeconds: a.stragglerSeconds,
			Samples: a.samples, CPUSeconds: a.last.CPUSeconds,
			RSSBytes: a.last.RSSBytes, PeakRSSBytes: a.peakRSS,
			SpillBytes: a.last.SpillBytes, QueueBytes: a.last.QueueBytes,
			PeakQueueBytes: a.peakQB, Wasted: a.wasted,
		}
		if len(a.stepSeconds) > 0 {
			snap.StepSeconds = make(map[string]float64, len(a.stepSeconds))
			for k, v := range a.stepSeconds {
				snap.StepSeconds[k] = v
			}
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// WritePrometheus renders the per-worker families (p3c_worker_*) in the
// text exposition format. Deterministic: workers and step names are
// sorted, floats use the shortest round-trip form. A forest that has seen
// no worker renders nothing (a TYPE line with no samples is pointless).
func (f *Forest) WritePrometheus(w io.Writer) error {
	snaps := f.Workers()
	if len(snaps) == 0 {
		return nil
	}
	family := func(name, typ string, value func(*WorkerSnapshot) string) error {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ); err != nil {
			return err
		}
		for i := range snaps {
			if _, err := fmt.Fprintf(w, "%s{worker=%q} %s\n", name, snaps[i].Worker, value(&snaps[i])); err != nil {
				return err
			}
		}
		return nil
	}
	itoa := func(v int64) string { return fmt.Sprintf("%d", v) }
	for _, fam := range []struct {
		name, typ string
		value     func(*WorkerSnapshot) string
	}{
		{"p3c_worker_attempts_total", "counter", func(s *WorkerSnapshot) string { return itoa(s.Attempts) }},
		{"p3c_worker_busy_seconds_total", "counter", func(s *WorkerSnapshot) string { return promFloat(s.BusySeconds) }},
		{"p3c_worker_cancelled_total", "counter", func(s *WorkerSnapshot) string { return itoa(s.Cancelled) }},
		{"p3c_worker_cpu_seconds_total", "counter", func(s *WorkerSnapshot) string { return promFloat(s.CPUSeconds) }},
		{"p3c_worker_faults_total", "counter", func(s *WorkerSnapshot) string { return itoa(s.Faults) }},
		{"p3c_worker_queue_bytes", "gauge", func(s *WorkerSnapshot) string { return itoa(s.QueueBytes) }},
		{"p3c_worker_rss_bytes", "gauge", func(s *WorkerSnapshot) string { return itoa(s.RSSBytes) }},
		{"p3c_worker_samples_total", "counter", func(s *WorkerSnapshot) string { return itoa(s.Samples) }},
		{"p3c_worker_spill_bytes", "gauge", func(s *WorkerSnapshot) string { return itoa(s.SpillBytes) }},
	} {
		if err := family(fam.name, fam.typ, fam.value); err != nil {
			return err
		}
	}
	// Step seconds carry a second label; emit one family with every
	// (worker, step) pair, both dimensions sorted.
	hasSteps := false
	for i := range snaps {
		hasSteps = hasSteps || len(snaps[i].StepSeconds) > 0
	}
	if hasSteps {
		if _, err := fmt.Fprintf(w, "# TYPE p3c_worker_step_seconds_total counter\n"); err != nil {
			return err
		}
		for i := range snaps {
			for _, name := range sortedKeys(snaps[i].StepSeconds) {
				if _, err := fmt.Fprintf(w, "p3c_worker_step_seconds_total{worker=%q,step=%q} %s\n",
					snaps[i].Worker, name, promFloat(snaps[i].StepSeconds[name])); err != nil {
					return err
				}
			}
		}
	}
	return family("p3c_worker_straggler_seconds_total", "counter", func(s *WorkerSnapshot) string { return promFloat(s.StragglerSeconds) })
}
