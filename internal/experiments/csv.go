package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV emitters for every experiment, so the regenerated figures can be fed
// straight into plotting tools. Each writer emits a header row followed by
// one record per measurement.

// WriteFigure1CSV emits mu,probability.
func WriteFigure1CSV(w io.Writer, rows []Fig1Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"mu", "probability"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{ftoa(r.Mu), ftoa(r.Probability)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure4CSV emits noise,clusters,size,e4sc_naive,e4sc_mvb.
func WriteFigure4CSV(w io.Writer, rows []Fig4Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"noise", "clusters", "size", "e4sc_naive", "e4sc_mvb"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{ftoa(r.Noise), itoa(r.Clusters), itoa(r.Size), ftoa(r.E4SCNaive), ftoa(r.E4SCMVB)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure5CSV emits size,threshold and the four series.
func WriteFigure5CSV(w io.Writer, rows []Fig5Row) error {
	cw := csv.NewWriter(w)
	header := []string{"size", "threshold", "poisson", "combined", "poisson_filtered", "combined_filtered", "optimal"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			itoa(r.Size), ftoa(r.Threshold),
			itoa(r.PoissonNoFilter), itoa(r.CombinedNoFilter),
			itoa(r.PoissonFiltered), itoa(r.CombinedFiltered), itoa(r.Optimal),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure6CSV emits one record per (config, variant).
func WriteFigure6CSV(w io.Writer, rows []Fig6Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"noise", "clusters", "size", "variant", "e4sc"}); err != nil {
		return err
	}
	for _, r := range rows {
		for _, v := range Fig6Variants {
			rec := []string{ftoa(r.Noise), itoa(r.Clusters), itoa(r.Size), v.String(), ftoa(r.Scores[v])}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure7CSV emits one record per (size, variant).
func WriteFigure7CSV(w io.Writer, rows []Fig7Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"size", "variant", "seconds"}); err != nil {
		return err
	}
	for _, r := range rows {
		for _, v := range Fig7Variants {
			rec := []string{itoa(r.Size), v.String(), ftoa(r.Seconds[v])}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteZooCSV emits one record per contender.
func WriteZooCSV(w io.Writer, rows []ZooRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"algorithm", "clusters", "e4sc", "f1", "rnia", "ce"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.Name, itoa(r.Clusters), ftoa(r.E4SC), ftoa(r.F1), ftoa(r.RNIA), ftoa(r.CE)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
