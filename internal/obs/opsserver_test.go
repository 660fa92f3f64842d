package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// goldenMetrics pins the full Prometheus exposition of a known registry
// state byte-for-byte: names sorted, shortest-round-trip floats, cumulative
// buckets, quantile gauges as separate families.
const goldenMetrics = `# TYPE jobs_total counter
jobs_total 3
# TYPE p3c_em_iterations_total counter
p3c_em_iterations_total 4
# TYPE p3c_quality_outliers_total counter
p3c_quality_outliers_total 9
# TYPE records_in counter
records_in 1200
# TYPE p3c_em_active_clusters gauge
p3c_em_active_clusters 3
# TYPE p3c_em_log_likelihood gauge
p3c_em_log_likelihood -38.25
# TYPE p3c_em_resp_entropy gauge
p3c_em_resp_entropy 0.5
# TYPE p3c_quality_cores gauge
p3c_quality_cores 3
# TYPE p3c_quality_outlier_mass gauge
p3c_quality_outlier_mass 0.0045
# TYPE shuffle_fill gauge
shuffle_fill 0.75
# TYPE task_seconds histogram
task_seconds_bucket{le="0.01"} 1
task_seconds_bucket{le="0.1"} 3
task_seconds_bucket{le="1"} 4
task_seconds_bucket{le="+Inf"} 5
task_seconds_sum 12.56
task_seconds_count 5
# TYPE task_seconds_p50 gauge
task_seconds_p50 0.0775
# TYPE task_seconds_p90 gauge
task_seconds_p90 1
# TYPE task_seconds_p99 gauge
task_seconds_p99 1
`

func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("jobs_total").Add(3)
	reg.Counter("records_in").Add(1200)
	reg.Gauge("shuffle_fill").Set(0.75)
	// The algorithm-telemetry families, as the EM fitter and the
	// signature/outlier phases publish them.
	reg.Counter("p3c_em_iterations_total").Add(4)
	reg.Gauge("p3c_em_log_likelihood").Set(-38.25)
	reg.Gauge("p3c_em_resp_entropy").Set(0.5)
	reg.Gauge("p3c_em_active_clusters").Set(3)
	reg.Counter("p3c_quality_outliers_total").Add(9)
	reg.Gauge("p3c_quality_outlier_mass").Set(0.0045)
	reg.Gauge("p3c_quality_cores").Set(3)
	h := reg.Histogram("task_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.1, 0.4, 12.005} {
		h.Observe(v)
	}
	return reg
}

func TestWritePrometheusGolden(t *testing.T) {
	reg := goldenRegistry()
	var a, b bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("two renders of the same state differ:\n%q\n%q", a.String(), b.String())
	}
	if a.String() != goldenMetrics {
		t.Errorf("exposition drifted from golden.\ngot:\n%s\nwant:\n%s", a.String(), goldenMetrics)
	}
	checkPromText(t, a.String())
}

// checkPromText is a hand-rolled Prometheus text-format (0.0.4) validator:
// every line is a comment or a sample, sample names are legal and follow a
// TYPE declaration, histogram buckets are cumulative with a +Inf bucket
// matching _count.
func checkPromText(t *testing.T, text string) {
	t.Helper()
	types := make(map[string]string)
	lastBucket := make(map[string]int64) // family -> last cumulative count
	infSeen := make(map[string]int64)
	counts := make(map[string]int64)
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		lineNo := i + 1
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				continue
			}
			name, typ := fields[2], fields[3]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Errorf("line %d: unknown metric type %q", lineNo, typ)
			}
			if _, dup := types[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("line %d: no sample value in %q", lineNo, line)
			continue
		}
		nameAndLabels, value := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("line %d: unparseable value %q", lineNo, value)
		}
		name := nameAndLabels
		labels := ""
		if b := strings.IndexByte(nameAndLabels, '{'); b >= 0 {
			name, labels = nameAndLabels[:b], nameAndLabels[b:]
			if !strings.HasSuffix(labels, "}") {
				t.Errorf("line %d: unterminated label set %q", lineNo, labels)
			}
		}
		for j, c := range name {
			legal := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(j > 0 && c >= '0' && c <= '9')
			if !legal {
				t.Errorf("line %d: illegal metric name %q", lineNo, name)
				break
			}
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suffix); ok && types[f] == "histogram" {
				family = f
				break
			}
		}
		if _, ok := types[family]; !ok {
			t.Errorf("line %d: sample %q has no TYPE declaration", lineNo, name)
		}
		if strings.HasSuffix(name, "_bucket") && types[family] == "histogram" {
			le := strings.TrimSuffix(strings.TrimPrefix(labels, `{le="`), `"}`)
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Errorf("line %d: bucket count %q not an integer", lineNo, value)
			}
			if n < lastBucket[family] {
				t.Errorf("line %d: bucket counts not cumulative for %q", lineNo, family)
			}
			lastBucket[family] = n
			if le == "+Inf" {
				infSeen[family] = n
			}
		}
		if strings.HasSuffix(name, "_count") && types[family] == "histogram" {
			counts[family], _ = strconv.ParseInt(value, 10, 64)
		}
	}
	for family, typ := range types {
		if typ != "histogram" {
			continue
		}
		inf, ok := infSeen[family]
		if !ok {
			t.Errorf("histogram %q has no +Inf bucket", family)
			continue
		}
		if counts[family] != inf {
			t.Errorf("histogram %q: _count %d != +Inf bucket %d", family, counts[family], inf)
		}
	}
}

func TestOpsMuxEndpoints(t *testing.T) {
	reg := goldenRegistry()
	forest := NewForest()
	run := playRun(forest, "p3c-pipeline", OutcomeOK)
	live := NewSpanID()
	forest.Begin(Start{ID: live, Kind: KindRun, Name: "in-flight"})

	srv := httptest.NewServer(NewOpsMux(reg, forest, nil))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || body != goldenMetrics {
		t.Errorf("/metrics = %d, body drift:\n%s", code, body)
	}

	code, body := get("/runs")
	if code != http.StatusOK {
		t.Fatalf("/runs = %d", code)
	}
	var runs []RunSnapshot
	if err := json.Unmarshal([]byte(body), &runs); err != nil {
		t.Fatalf("/runs not JSON: %v", err)
	}
	if len(runs) != 2 {
		t.Fatalf("/runs returned %d runs, want 2 (one done, one live)", len(runs))
	}

	code, body = get(fmt.Sprintf("/runs/%d", run))
	if code != http.StatusOK {
		t.Fatalf("/runs/{id} = %d", code)
	}
	var one RunSnapshot
	if err := json.Unmarshal([]byte(body), &one); err != nil || one.ID != int64(run) {
		t.Errorf("/runs/{id} payload = %q (err %v)", body, err)
	}

	if code, _ := get("/runs/notanumber"); code != http.StatusBadRequest {
		t.Errorf("/runs/notanumber = %d, want 400", code)
	}
	if code, _ := get("/runs/99999999"); code != http.StatusNotFound {
		t.Errorf("/runs/99999999 = %d, want 404", code)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d, want 200", code)
	}
}

// fakeLister stands in for *archive.Archive (obs cannot import the archive
// package) on the /archive endpoint.
type fakeLister struct {
	payload string
	err     error
}

func (f fakeLister) ListJSON() ([]byte, error) { return []byte(f.payload), f.err }

func TestOpsMuxArchiveEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewOpsMux(nil, nil, fakeLister{payload: `[{"id":"abc"}]`}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/archive")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(b) != `[{"id":"abc"}]` {
		t.Errorf("/archive = %d %q", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/archive Content-Type = %q", ct)
	}

	broken := httptest.NewServer(NewOpsMux(nil, nil, fakeLister{err: fmt.Errorf("index unreadable")}))
	defer broken.Close()
	resp2, err := http.Get(broken.URL + "/archive")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Errorf("/archive with failing lister = %d, want 500", resp2.StatusCode)
	}
}

func TestOpsMuxUnconfigured(t *testing.T) {
	srv := httptest.NewServer(NewOpsMux(nil, nil, nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/runs", "/runs/1", "/workers", "/archive"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s = %d, want 503", path, resp.StatusCode)
		}
	}
}

func TestStartOps(t *testing.T) {
	srv, err := StartOps("127.0.0.1:0", goldenRegistry(), NewForest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz on StartOps server = %d", resp.StatusCode)
	}
}
