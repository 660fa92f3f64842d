package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"p3cmr"
	"p3cmr/internal/dataset"
	"p3cmr/internal/em"
	"p3cmr/internal/eval"
	"p3cmr/internal/linalg"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
)

// repEnv carries a rep's spec to the child process that runs it. Each rep is
// a fresh process, as a user runs p3crun, so its peak RSS is its own.
const repEnv = "P3CLEDGER_REP"

// repTimeout bounds one rep; the largest workload takes a few seconds.
const repTimeout = 150 * time.Second

// numSplits is the pipeline's default split count, used for em.FitMR too.
const numSplits = 16

type repSpec struct {
	Workload string `json:"workload"`
	Data     string `json:"data"`
	Truth    string `json:"truth"`
	Trace    bool   `json:"trace"`
	// Reference runs an em workload in-process; its model pins the others.
	Reference bool `json:"reference"`
}

type repResult struct {
	ReadS  float64 `json:"read_s"`
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	RSSMB  float64 `json:"rss_mb"`
	SimS   float64 `json:"sim_s"`
	Jobs   int     `json:"jobs"`
	E4SC   float64 `json:"e4sc"`
	// MeanLogLik is the mean log-likelihood per point of the Gaussian
	// mixture the rep ends with; see meanLogLik.
	MeanLogLik float64 `json:"mean_loglik"`
	// Digest is the SHA-256 of the result: WriteJSON with members for a
	// pipeline, the fitted model's Float64bits for em.
	Digest string `json:"digest"`
	// Layers and JobPoints come from the traced rep's span fold.
	Layers    map[string]float64 `json:"layers,omitempty"`
	JobPoints []jobPoint         `json:"job_points,omitempty"`
}

// maybeRep runs one rep and exits when this process was spawned as one.
func maybeRep() {
	raw := os.Getenv(repEnv)
	if raw == "" {
		return
	}
	var spec repSpec
	err := json.Unmarshal([]byte(raw), &spec)
	var res *repResult
	if err == nil {
		res, err = runRep(spec)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "p3cledger rep:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// spawnRep runs spec in a child process of this binary and waits for it.
func spawnRep(spec repSpec) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), repEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("rep process: %w", err)
	}
	var res repResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("rep output: %w", err)
	}
	return &res, nil
}

// runRep is one rep: set-up, the timed call, then the untimed checks.
func runRep(spec repSpec) (*repResult, error) {
	w, err := findWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	// The metrics registry is on in every rep, tracing only in the traced
	// one: EM publishes its last iteration's mean log-likelihood there, at
	// the price of a few atomic adds per job.
	reg := obs.NewRegistry()
	cfg := mr.Config{Parallelism: runtime.NumCPU(), Cost: mr.DefaultCostModel(), Backend: w.backend, Metrics: reg}
	if spec.Reference {
		cfg.Backend = ""
	}
	var rec *recorder
	if spec.Trace {
		rec = newRecorder()
		cfg.Tracer = rec
	}

	t0 := obs.Now()
	data, err := readData(spec.Data)
	if err != nil {
		return nil, err
	}
	res := &repResult{ReadS: obs.Since(t0).Seconds()}
	splits := data.Splits(numSplits)
	engine := mr.NewEngine(cfg)
	res.SetupS = obs.Since(t0).Seconds()

	tf, err := os.Open(spec.Truth)
	if err != nil {
		return nil, err
	}
	truth, err := dataset.ReadGroundTruth(tf)
	tf.Close()
	if err != nil {
		return nil, err
	}

	var out *p3cmr.Result
	var model *em.Model
	if w.em {
		model = truthModel(truth)
	}
	start := obs.Now()
	if w.em {
		_, err = em.FitMR(engine, splits, model, em.FitOptions{MaxIterations: 8, Tolerance: 1e-4})
	} else {
		out, err = p3cmr.Run(data, p3cmr.Config{Algorithm: w.algo, Engine: engine})
	}
	call := interval{start, obs.Now()}
	if err != nil {
		return nil, err
	}
	res.WallS = call.seconds()
	if res.RSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	res.SimS = engine.TotalSimulatedSeconds()
	res.Jobs = engine.JobsRun()

	if w.em {
		res.Digest = modelDigest(model)
		res.E4SC, err = modelE4SC(model, data, truth)
	} else {
		var buf bytes.Buffer
		err = out.WriteJSON(&buf, w.algo, true)
		sum := sha256.Sum256(buf.Bytes())
		res.Digest = hex.EncodeToString(sum[:])
		res.E4SC = p3cmr.E4SCAgainstTruth(out, data, truth)
	}
	if err != nil {
		return nil, err
	}
	if res.MeanLogLik, err = meanLogLik(reg, out, data); err != nil {
		return nil, err
	}
	if rec != nil {
		if res.Layers, res.JobPoints, err = rec.fold(call, cfg.Parallelism); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func readData(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadBinary(f)
}

// truthModel initialises EM from the generator's truth: one component per
// hidden cluster over the union of the truth attributes, centred on the
// cluster's box (the unit interval on attributes it does not constrain),
// with the box's uniform variance w²/12 on the diagonal and equal weights.
func truthModel(truth *dataset.GroundTruth) *em.Model {
	var lists [][]int
	for _, c := range truth.Clusters {
		lists = append(lists, c.Attrs)
	}
	attrs := attrUnion(lists)
	model := &em.Model{Attrs: attrs}
	for _, c := range truth.Clusters {
		d := len(attrs)
		mean := make([]float64, d)
		cov := linalg.NewMatrix(d, d)
		for j, a := range attrs {
			lo, hi := 0.0, 1.0
			for i, ca := range c.Attrs {
				if ca == a {
					lo, hi = c.Lo[i], c.Hi[i]
				}
			}
			mean[j] = (lo + hi) / 2
			cov.Set(j, j, (hi-lo)*(hi-lo)/12)
		}
		model.Components = append(model.Components, &em.Component{
			Weight: 1 / float64(len(truth.Clusters)), Mean: mean, Cov: cov})
	}
	return model
}

// attrUnion is the ascending union of the attribute lists: the subspace
// Arel a mixture over these clusters lives in.
func attrUnion(lists [][]int) []int {
	seen := make(map[int]bool)
	var attrs []int
	for _, l := range lists {
		for _, a := range l {
			if !seen[a] {
				seen[a] = true
				attrs = append(attrs, a)
			}
		}
	}
	sort.Ints(attrs)
	return attrs
}

// modelDigest hashes the fitted model's parameters bit for bit.
func modelDigest(m *em.Model) string {
	h := sha256.New()
	put := func(vs ...float64) {
		for _, v := range vs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, c := range m.Components {
		put(c.Weight)
		put(c.Mean...)
		put(c.Cov.Data...)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// modelE4SC scores the fitted model's most-likely-component assignment,
// with each component carrying its truth cluster's attributes.
func modelE4SC(m *em.Model, data *dataset.Dataset, truth *dataset.GroundTruth) (float64, error) {
	clusters := make([]*eval.Cluster, m.K())
	for i := range clusters {
		clusters[i] = &eval.Cluster{Attrs: truth.Clusters[i].Attrs}
	}
	d := len(m.Attrs)
	x, sc1, sc2 := make([]float64, d), make([]float64, d), make([]float64, d)
	for i := 0; i < data.N(); i++ {
		x = m.Project(x, data.Row(i))
		c := m.MostLikely(x, sc1, sc2)
		clusters[c].Objects = append(clusters[c].Objects, i)
	}
	found, err := eval.NewSubspaceClustering(data.N(), data.Dim, clusters)
	if err != nil {
		return 0, err
	}
	tc, err := p3cmr.TruthClustering(truth)
	if err != nil {
		return 0, err
	}
	return p3cmr.E4SC(found, tc), nil
}

// meanLogLik is the mean log-likelihood per point of the Gaussian mixture
// the rep ends with. Where EM ran, it is the value its last iteration
// published to the registry. A Light pipeline runs no EM, so there it is
// the mixture EM would start from: one component per found cluster with
// its members' mean and covariance over the clusters' attributes, weighted
// by member count.
func meanLogLik(reg *obs.Registry, out *p3cmr.Result, data *dataset.Dataset) (float64, error) {
	if reg.Counter("p3c_em_iterations_total").Value() > 0 {
		return reg.Gauge("p3c_em_log_likelihood").Value(), nil
	}
	if out == nil || len(out.Clusters) == 0 {
		return 0, fmt.Errorf("no EM iteration and no cluster to score")
	}
	var lists [][]int
	var total int
	for _, c := range out.Clusters {
		lists = append(lists, c.Attrs)
		total += len(c.Objects)
	}
	model := &em.Model{Attrs: attrUnion(lists)}
	d := len(model.Attrs)
	x := make([]float64, d)
	for i, c := range out.Clusters {
		if len(c.Objects) < 2 {
			return 0, fmt.Errorf("cluster %d has %d members", i, len(c.Objects))
		}
		mean := make([]float64, d)
		for _, p := range c.Objects {
			x = model.Project(x, data.Row(p))
			for j, v := range x {
				mean[j] += v
			}
		}
		for j := range mean {
			mean[j] /= float64(len(c.Objects))
		}
		cov := linalg.NewMatrix(d, d)
		for _, p := range c.Objects {
			x = model.Project(x, data.Row(p))
			for a := 0; a < d; a++ {
				da := x[a] - mean[a]
				for b := 0; b < d; b++ {
					cov.Data[a*d+b] += da * (x[b] - mean[b])
				}
			}
		}
		for j := range cov.Data {
			cov.Data[j] /= float64(len(c.Objects) - 1)
		}
		model.Components = append(model.Components, &em.Component{
			Weight: float64(len(c.Objects)) / float64(total), Mean: mean, Cov: cov})
	}
	if err := model.Prepare(); err != nil {
		return 0, err
	}
	resp, sc1, sc2 := make([]float64, model.K()), make([]float64, d), make([]float64, d)
	var ll float64
	for i := 0; i < data.N(); i++ {
		x = model.Project(x, data.Row(i))
		ll += model.Responsibilities(resp, x, sc1, sc2)
	}
	return ll / float64(data.N()), nil
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
