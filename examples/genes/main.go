// Gene-expression analysis: the paper's §7.6 scenario. A microarray-style
// data set (few samples, thousands of attributes, a handful of informative
// genes) is clustered with the original P3C and with P3C+, and the cluster
// structure is compared against the tissue classes — reproducing the
// colon-cancer experiment on the offline synthetic twin.
package main

import (
	"fmt"
	"log"

	"p3cmr"
	"p3cmr/internal/dataset"
)

func main() {
	// 62 tissue samples x 2000 genes, two classes (tumor / normal), a
	// dozen strongly informative genes — the shape of the UCI colon-cancer
	// data set.
	data, classes, err := dataset.GenerateMicroarray(dataset.MicroarrayConfig{
		Samples:          62,
		Dim:              2000,
		Informative:      12,
		PositiveFraction: 40.0 / 62.0,
		Seed:             7,
	})
	if err != nil {
		log.Fatal(err)
	}
	tumors := 0
	for _, c := range classes {
		tumors += c
	}
	fmt.Printf("microarray twin: %d samples x %d genes (%d tumor, %d normal)\n",
		data.N(), data.Dim, tumors, data.N()-tumors)

	run := func(name string, algo p3cmr.Algorithm) {
		cfg := p3cmr.DefaultConfig(algo)
		cfg.Params.NumSplits = 4
		res, err := p3cmr.Run(data, cfg)
		if err != nil {
			log.Fatal(err)
		}
		acc := p3cmr.Accuracy(res.Labels, classes)
		fmt.Printf("%-6s clusters=%d accuracy=%.0f%%\n", name, len(res.Clusters), acc*100)
		printed := 0
		for i, c := range res.Clusters {
			if len(c.Objects) == 0 {
				continue
			}
			if printed == 8 {
				fmt.Printf("  ... (%d more clusters)\n", len(res.Clusters)-i)
				break
			}
			t := 0
			for _, o := range c.Objects {
				t += classes[o]
			}
			fmt.Printf("  cluster %d: %d samples (%d tumor), %d relevant genes\n",
				i, len(c.Objects), t, len(c.Attrs))
			printed++
		}
	}

	// The original P3C (Sturges binning, pure Poisson test).
	run("P3C", p3cmr.P3C)

	// P3C+ — with 62 samples the EM/outlier refinement degenerates, so the
	// Light model is the appropriate P3C+ instantiation (§6).
	run("P3C+", p3cmr.P3CPlusMRLight)

	fmt.Println("\npaper reference (real colon-cancer data): P3C 67%, P3C+ 71%")
}
