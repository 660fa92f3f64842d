package obs

import (
	"fmt"
	"io"
)

// workerFold is one worker process's totals over a set of spans: the task
// attempts, steps and points that carry its name. It is the one per-worker
// fold — Analyze renders a run's folds as WorkerRows, Workers the whole
// forest's as WorkerSnapshots — so the two views agree by construction.
type workerFold struct {
	attempts, ok, faults, cancelled, errors int
	busySeconds, faultSeconds               float64
	stragglerSeconds                        float64
	stepSeconds                             map[string]float64
	wasted                                  Counters

	samples                 int
	first, last             spanPt // the samples that arrived first and last
	peakRSS, peakQB, peakSB int64
}

// workerFolds folds every worker-attributed span and point under roots by
// worker name. Spans and points without a worker (driver-side events,
// in-process execution) carry nothing to attribute. Caller holds f.mu.
func (f *Forest) workerFolds(roots []*span) map[string]*workerFold {
	folds := make(map[string]*workerFold)
	worker := func(name string) *workerFold {
		w := folds[name]
		if w == nil {
			w = &workerFold{}
			folds[name] = w
		}
		return w
	}
	for _, root := range roots {
		f.walk(root, func(s *span) {
			// The worker name arrives with the span's End, so an attributed
			// span is a closed one.
			switch {
			case s.worker == "":
			case s.isAttempt():
				w := worker(s.worker)
				w.attempts++
				w.busySeconds += s.realS
				w.wasted.Add(s.wasted)
				switch s.outcome {
				case OutcomeOK:
					w.ok++
				case OutcomeFault:
					w.faults++
					w.faultSeconds += s.realS
				case OutcomeCancelled:
					w.cancelled++
				case OutcomeError:
					w.errors++
				}
			case s.kind == KindStep:
				w := worker(s.worker)
				if w.stepSeconds == nil {
					w.stepSeconds = make(map[string]float64)
				}
				w.stepSeconds[s.name] += s.realS
			}
			for _, p := range s.points {
				switch {
				case p.Worker == "":
				case p.Kind == PointStraggler:
					worker(p.Worker).stragglerSeconds += p.Seconds
				case p.Kind == PointSample && p.Sample != nil:
					w := worker(p.Worker)
					if w.samples == 0 || p.seq < w.first.seq {
						w.first = p
					}
					if w.samples == 0 || p.seq > w.last.seq {
						w.last = p
					}
					w.samples++
					w.peakRSS = max(w.peakRSS, p.Sample.RSSBytes)
					w.peakQB = max(w.peakQB, p.Sample.QueueBytes)
					w.peakSB = max(w.peakSB, p.Sample.SpillBytes)
				}
			}
		})
	}
	return folds
}

// lastSample is the worker's latest resource sample; zero without one.
func (w *workerFold) lastSample() ResourceSample {
	if w.samples == 0 {
		return ResourceSample{}
	}
	return *w.last.Sample
}

// utilization is ΔCPU/Δwall between the worker's first and last samples;
// 0 without two samples apart in time.
func (w *workerFold) utilization() float64 {
	if dt := w.last.ts - w.first.ts; w.samples >= 2 && dt > 0 {
		return (w.last.Sample.CPUSeconds - w.first.Sample.CPUSeconds) / dt
	}
	return 0
}

// WorkerSnapshot is the state of one worker process over every span of
// the forest — the /workers payload element.
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

// Workers returns every worker's totals over the forest, sorted by worker
// name.
func (f *Forest) Workers() []WorkerSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	folds := f.workerFolds(f.roots())
	out := make([]WorkerSnapshot, 0, len(folds))
	for _, name := range sortedKeys(folds) {
		w := folds[name]
		last := w.lastSample()
		out = append(out, WorkerSnapshot{
			Worker: name, Attempts: int64(w.attempts), OK: int64(w.ok), Faults: int64(w.faults),
			Cancelled: int64(w.cancelled), Errors: int64(w.errors),
			BusySeconds: w.busySeconds, StragglerSeconds: w.stragglerSeconds,
			StepSeconds: w.stepSeconds, Samples: int64(w.samples),
			CPUSeconds: last.CPUSeconds, RSSBytes: last.RSSBytes, PeakRSSBytes: w.peakRSS,
			SpillBytes: last.SpillBytes, QueueBytes: last.QueueBytes,
			PeakQueueBytes: w.peakQB, Wasted: w.wasted,
		})
	}
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
