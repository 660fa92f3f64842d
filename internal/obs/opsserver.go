package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as typed single-sample
// families, histograms as cumulative _bucket/_sum/_count families plus
// derived _p50/_p90/_p99 quantile gauges (separate families — mixing
// quantile samples into a histogram family is invalid exposition).
// Output is deterministic: names are sorted, floats use the shortest
// round-trip form, so two snapshots of the same state render byte-identical
// text — pinned by the golden test.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, n := range sortedKeys(s.Counters) {
		name := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[n]); err != nil {
			return err
		}
	}
	for _, n := range sortedKeys(s.Gauges) {
		name := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(s.Gauges[n])); err != nil {
			return err
		}
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		name := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(b), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			name, h.Count, name, promFloat(h.Sum), name, h.Count); err != nil {
			return err
		}
		for _, q := range [...]struct {
			suffix string
			q      float64
		}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
			qn := name + "_" + q.suffix
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", qn, qn, promFloat(h.Quantile(q.q))); err != nil {
				return err
			}
		}
	}
	return nil
}

// promFloat formats a float in its shortest round-trip form — deterministic
// and parseable by Prometheus.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promName maps a registry name onto the Prometheus metric-name alphabet
// [a-zA-Z0-9_:], replacing anything else with '_'.
func promName(n string) string {
	out := []byte(n)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				out[i] = '_'
			}
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// ArchiveLister is the run archive's ops-plane face: the /archive endpoint
// serves whatever it renders. Implemented by *archive.Archive; declared
// here (as a one-method interface) so obs does not import the archive
// package.
type ArchiveLister interface {
	// ListJSON renders the archived record manifests as a JSON array.
	ListJSON() ([]byte, error)
}

// NewOpsMux builds the ops-plane HTTP handler:
//
//	/healthz            liveness probe ("ok")
//	/metrics            Prometheus text exposition of reg (503 when nil),
//	                    followed by the forest's per-worker p3c_worker_*
//	                    families
//	/runs               JSON array of live + recent run progress snapshots
//	/runs/{id}          one run's snapshot (404 unknown)
//	/workers            JSON array of per-worker telemetry snapshots
//	/archive            JSON array of archived run manifests
//	/debug/pprof/...    the standard runtime profiles
//
// reg, forest and arch may each be nil; the corresponding endpoints then
// report 503. The handler only reads views of the forest, so it is safe to
// serve while runs are in flight.
func NewOpsMux(reg *Registry, forest *Forest, arch ArchiveLister) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		if reg == nil {
			http.Error(w, "metrics registry not configured", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WritePrometheus(w)
		if forest != nil {
			forest.WritePrometheus(w)
		}
	})
	// withForest serves a forest view, or 503 when no forest is attached.
	withForest := func(view func(w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if forest == nil {
				http.Error(w, "span forest not configured", http.StatusServiceUnavailable)
				return
			}
			view(w, r)
		}
	}
	mux.HandleFunc("GET /workers", withForest(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, forest.Workers())
	}))
	mux.HandleFunc("GET /runs", withForest(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, forest.Runs())
	}))
	mux.HandleFunc("GET /runs/{id}", withForest(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
		if err != nil {
			http.Error(w, "run id must be an integer", http.StatusBadRequest)
			return
		}
		snap, ok := forest.Run(id)
		if !ok {
			http.Error(w, "no such run", http.StatusNotFound)
			return
		}
		writeJSON(w, snap)
	}))
	mux.HandleFunc("GET /archive", func(w http.ResponseWriter, _ *http.Request) {
		if arch == nil {
			http.Error(w, "run archive not configured", http.StatusServiceUnavailable)
			return
		}
		b, err := arch.ListJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// OpsServer is a running ops-plane HTTP server — `p3crun -ops :addr`.
type OpsServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartOps listens on addr (":0" picks a free port) and serves the ops mux
// in a background goroutine until Close.
func StartOps(addr string, reg *Registry, forest *Forest, arch ArchiveLister) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: ops server: %w", err)
	}
	s := &OpsServer{ln: ln, srv: &http.Server{Handler: NewOpsMux(reg, forest, arch)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (host:port).
func (s *OpsServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes the listener.
func (s *OpsServer) Close() error { return s.srv.Close() }
