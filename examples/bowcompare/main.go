// BoW vs P3C+-MR: the paper's §7.5 comparison in miniature. One data set,
// four algorithms (BoW Light/MVB, MR Light/MVB), quality and modeled
// cluster runtime side by side — the trade-off the paper's Figures 6 and 7
// plot.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"p3cmr"
	"p3cmr/internal/mr"
)

func main() {
	data, truth, err := p3cmr.GenerateSynthetic(p3cmr.SyntheticConfig{
		N:             20000,
		Dim:           25,
		Clusters:      5,
		NoiseFraction: 0.10,
		Seed:          3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("data: %d points x %d dims, 5 hidden clusters, 10%% noise\n\n", data.N(), data.Dim)

	type contender struct {
		name string
		algo p3cmr.Algorithm
	}
	contenders := []contender{
		{"BoW (Light)", p3cmr.BoWLight},
		{"BoW (MVB)", p3cmr.BoWMVB},
		{"MR (Light)", p3cmr.P3CPlusMRLight},
		{"MR (MVB)", p3cmr.P3CPlusMR},
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tclusters\tE4SC\tMR jobs\tmodeled runtime")
	for _, c := range contenders {
		// A fresh engine per run, with the Hadoop cost model so the modeled
		// runtime column is populated.
		engine := mr.NewEngine(mr.Config{NumReducers: 112, Cost: mr.DefaultCostModel()})
		cfg := p3cmr.DefaultConfig(c.algo)
		cfg.Engine = engine
		if cfg.BoW != nil {
			// Partition into blocks of 4000 so BoW's sampling really kicks in.
			cfg.BoW.SamplesPerReducer = 4000
		}
		res, err := p3cmr.Run(data, cfg)
		engine.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%d\t%.0f s\n",
			c.name, len(res.Clusters),
			p3cmr.E4SCAgainstTruth(res, data, truth),
			res.Jobs, res.SimulatedSeconds)
	}
	tw.Flush()

	fmt.Println("\npaper shape: Light variants beat MVB variants in quality;")
	fmt.Println("MR (MVB) pays the most jobs; BoW and MR (Light) are the cheap ones.")
}
