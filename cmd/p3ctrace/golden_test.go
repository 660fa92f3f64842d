package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"p3cmr/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestTraceGoldens pins every view of the span stream on two committed
// fixture traces (see testdata/gen.go), all read off one replayed forest:
// the p3ctrace analysis as -json and as text with and without -timeline
// (the text without it is also what p3crun -report prints), the /runs and
// /workers payloads, and the p3c_worker_* exposition. Run
// with -update to rewrite the goldens.
func TestTraceGoldens(t *testing.T) {
	for _, fixture := range []string{"chaos", "multiproc"} {
		t.Run(fixture, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", fixture+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			forest, err := obs.ReadJSONL(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			// p3ctrace's default -top and p3crun -report both analyze with
			// ReportTopK, so <fixture>.txt is also the -report rendering.
			a := forest.Analyze(obs.ReportTopK)
			var js bytes.Buffer
			enc := json.NewEncoder(&js)
			enc.SetIndent("", "  ")
			if err := enc.Encode(a); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fixture+".analysis.json", js.Bytes())
			for _, timeline := range []bool{false, true} {
				var txt bytes.Buffer
				if err := obs.WriteText(&txt, a, timeline); err != nil {
					t.Fatal(err)
				}
				name := fixture + ".txt"
				if timeline {
					name = fixture + ".timeline.txt"
				}
				checkGolden(t, name, txt.Bytes())
			}

			mux := obs.NewOpsMux(nil, forest, nil)
			checkGolden(t, fixture+".runs.json", serve(t, mux, "/runs"))
			checkGolden(t, fixture+".workers.json", serve(t, mux, "/workers"))
			var prom bytes.Buffer
			if err := forest.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fixture+".workers.prom", prom.Bytes())
		})
	}
}

func serve(t *testing.T, mux http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	return rec.Body.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden (rerun with -update to inspect the diff)", name)
	}
}
