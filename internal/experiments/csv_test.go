package experiments

import (
	"bytes"
	"encoding/csv"
	"testing"

	"p3cmr"
)

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	records, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return records
}

func TestWriteFigure1CSV(t *testing.T) {
	rows := Figure1([]float64{100, 1000})
	var buf bytes.Buffer
	if err := WriteFigure1CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	if len(records) != 3 || records[0][0] != "mu" {
		t.Fatalf("records = %v", records)
	}
}

func TestWriteFigure4CSV(t *testing.T) {
	rows := []Fig4Row{{Size: 1000, Noise: 0.1, Clusters: 3, E4SCNaive: 0.8, E4SCMVB: 0.9}}
	var buf bytes.Buffer
	if err := WriteFigure4CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	if len(records) != 2 || records[1][3] != "0.8" {
		t.Fatalf("records = %v", records)
	}
}

func TestWriteFigure5CSV(t *testing.T) {
	rows := []Fig5Row{{Size: 1000, Threshold: 1e-5, PoissonNoFilter: 10, CombinedNoFilter: 5, PoissonFiltered: 4, CombinedFiltered: 3, Optimal: 5}}
	var buf bytes.Buffer
	if err := WriteFigure5CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	if len(records) != 2 || records[1][2] != "10" {
		t.Fatalf("records = %v", records)
	}
}

func TestWriteFigure6And7CSV(t *testing.T) {
	rows6 := []Fig6Row{{Size: 1000, Noise: 0.1, Clusters: 3, Scores: map[p3cmr.Algorithm]float64{
		p3cmr.BoWLight: 0.7, p3cmr.BoWMVB: 0.8, p3cmr.P3CPlusMRLight: 0.9, p3cmr.P3CPlusMR: 0.95,
	}}}
	var buf bytes.Buffer
	if err := WriteFigure6CSV(&buf, rows6); err != nil {
		t.Fatal(err)
	}
	if got := len(parseCSV(t, &buf)); got != 1+len(Fig6Variants) {
		t.Fatalf("fig6 records = %d", got)
	}

	rows7 := []Fig7Row{{Size: 1000, Seconds: map[p3cmr.Algorithm]float64{
		p3cmr.BoWLight: 8, p3cmr.BoWMVB: 9, p3cmr.P3CPlusMRLight: 90, p3cmr.P3CPlusMR: 250, p3cmr.P3CPlusMRNaive: 230,
	}}}
	buf.Reset()
	if err := WriteFigure7CSV(&buf, rows7); err != nil {
		t.Fatal(err)
	}
	if got := len(parseCSV(t, &buf)); got != 1+len(Fig7Variants) {
		t.Fatalf("fig7 records = %d", got)
	}
}

func TestWriteZooCSV(t *testing.T) {
	rows := []ZooRow{{Name: "P3C+", Clusters: 4, E4SC: 0.98, F1: 0.97, RNIA: 0.96, CE: 0.95}}
	var buf bytes.Buffer
	if err := WriteZooCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	records := parseCSV(t, &buf)
	if len(records) != 2 || records[1][0] != "P3C+" {
		t.Fatalf("records = %v", records)
	}
}
