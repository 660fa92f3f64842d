package experiments

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenScale is one size, one noise level and one cluster count: every
// figure writer emits rows, and the whole set runs in about a second.
func goldenScale() Scale {
	return Scale{
		Sizes:         []int{800},
		Dim:           12,
		NoiseLevels:   []float64{0.10},
		ClusterCounts: []int{3},
		Seed:          2,
		Reducers:      112,
	}
}

// TestFigureCSVGoldens pins the CSV of every experiment that runs an
// algorithm variant, so a change to how a variant is configured or run
// shows up as a byte difference. Rerun with -update after an intended
// change and diff testdata/golden before committing.
func TestFigureCSVGoldens(t *testing.T) {
	scale := goldenScale()
	cases := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"fig4.csv", func(w io.Writer) error {
			rows, err := Figure4(scale)
			if err != nil {
				return err
			}
			return WriteFigure4CSV(w, rows)
		}},
		{"fig6.csv", func(w io.Writer) error {
			rows, err := Figure6(scale, 0)
			if err != nil {
				return err
			}
			return WriteFigure6CSV(w, rows)
		}},
		{"fig7.csv", func(w io.Writer) error {
			rows, err := Figure7(scale, 0)
			if err != nil {
				return err
			}
			return WriteFigure7CSV(w, rows)
		}},
		{"zoo.csv", func(w io.Writer) error {
			rows, err := Zoo(scale)
			if err != nil {
				return err
			}
			return WriteZooCSV(w, rows)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.write(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", c.name)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s differs from the golden:\ngot:\n%s\nwant:\n%s", c.name, buf.Bytes(), want)
			}
		})
	}
}
