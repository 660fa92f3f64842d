// Command p3ceval evaluates a clustering result against a ground-truth
// file (as written by p3cgen -truth) with the paper's quality measures:
// E4SC, F1, RNIA and CE.
//
// Usage:
//
//	p3ceval -labels labels.txt -truth truth.txt -attrs "0,1,2;3,4"
//
// The labels file holds one integer per point (-1 = outlier); -attrs gives
// each found cluster's relevant attributes, clusters separated by ';'.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"p3cmr/internal/dataset"
	"p3cmr/internal/eval"
)

func main() {
	var (
		labelsIn = flag.String("labels", "", "per-point label file (required)")
		truthIn  = flag.String("truth", "", "ground-truth file from p3cgen (required)")
		attrsIn  = flag.String("attrs", "", "found clusters' attributes, e.g. \"0,1,2;3,4\" (required)")
	)
	flag.Parse()
	if *labelsIn == "" || *truthIn == "" || *attrsIn == "" {
		fatal(fmt.Errorf("-labels, -truth and -attrs are required"))
	}

	labels, err := readLabels(*labelsIn)
	if err != nil {
		fatal(err)
	}
	truth, dim, err := readTruth(*truthIn)
	if err != nil {
		fatal(err)
	}
	attrs, err := parseAttrs(*attrsIn)
	if err != nil {
		fatal(err)
	}

	found, err := eval.FromLabels(len(labels), dim, labels, attrs)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("found clusters: %d   true clusters: %d\n", len(found.Clusters), len(truth.Clusters))
	fmt.Printf("E4SC: %.4f\n", eval.E4SC(found, truth))
	fmt.Printf("F1:   %.4f\n", eval.F1(found, truth))
	fmt.Printf("RNIA: %.4f\n", eval.RNIA(found, truth))
	fmt.Printf("CE:   %.4f\n", eval.CE(found, truth))
}

func readLabels(path string) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var labels []int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := strconv.Atoi(line)
		if err != nil {
			return nil, fmt.Errorf("bad label %q: %w", line, err)
		}
		labels = append(labels, v)
	}
	return labels, sc.Err()
}

// readTruth parses the p3cgen sidecar format into an evaluation clustering.
func readTruth(path string) (*eval.SubspaceClustering, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	gt, err := dataset.ReadGroundTruth(f)
	if err != nil {
		return nil, 0, err
	}
	truth, err := gt.Clustering()
	return truth, gt.Dim, err
}

func parseAttrs(s string) ([][]int, error) {
	var out [][]int
	for _, group := range strings.Split(s, ";") {
		group = strings.TrimSpace(group)
		var attrs []int
		if group != "" {
			for _, tok := range strings.Split(group, ",") {
				a, err := strconv.Atoi(strings.TrimSpace(tok))
				if err != nil {
					return nil, fmt.Errorf("bad attribute %q", tok)
				}
				attrs = append(attrs, a)
			}
		}
		out = append(out, attrs)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p3ceval:", err)
	os.Exit(1)
}
