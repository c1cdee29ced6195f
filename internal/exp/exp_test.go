package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ from the current output")

// goldenScale is extra small for test speed; the goldens are its output.
var goldenScale = Scale{IPDrop: 6, TrigramDrop: 8, Seed: 1}

// anchors lists the analytic experiments, which build no dataset and so
// run under -short too, with the paper anchor values each must print.
var anchors = map[string][]string{
	"table1": {"Expand search key", "15992", "4.85"},
	"fig6a":  {"16T SRAM TCAM", "12.0x", "4.8x"},
	"fig6b":  {"6T dynamic TCAM", "CA-RAM"},
	"fig8":   {"IP lookup", "trigram", "area saving"},
}

// listGolden pins the registry itself: names, descriptions and order,
// as caram-bench -list prints them.
const listGolden = "testdata/experiments.list"

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bbbb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("long-cell", "x")
	tab.Note("note %d", 7)
	out := tab.Render()
	for _, want := range []string{"== T ==", "a", "bbbb", "2.500", "long-cell", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestScale(t *testing.T) {
	if DefaultScale().IPPrefixes() != 186760>>4 {
		t.Error("default IP scale wrong")
	}
	if FullScale().Label() != "full paper scale" {
		t.Error("full-scale label wrong")
	}
	if !strings.Contains(DefaultScale().Label(), "scaled") {
		t.Error("scaled label wrong")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", DefaultScale()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestGolden pins the registry against testdata: the listing in
// listGolden, and one testdata/<name>.golden per registered experiment
// and no other. TestFastExperiments and TestWorkloadExperiments hold
// each experiment's output at goldenScale byte for byte to its golden.
// Regenerate with `go test ./internal/exp -update`.
func TestGolden(t *testing.T) {
	checkGolden(t, listGolden, List())

	files, err := filepath.Glob("testdata/*.golden")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	for _, f := range files {
		pinned[strings.TrimSuffix(filepath.Base(f), ".golden")] = true
	}
	for _, e := range Experiments {
		if !pinned[e.Name] && !*update {
			t.Errorf("experiment %q has no testdata/%s.golden (run with -update)", e.Name, e.Name)
		}
		delete(pinned, e.Name)
	}
	for name := range pinned {
		t.Errorf("testdata/%s.golden has no registered experiment", name)
	}
}

func TestFastExperiments(t *testing.T) {
	for _, e := range Experiments {
		wants, ok := anchors[e.Name]
		if !ok {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			out := runGolden(t, e)
			for _, w := range wants {
				if !strings.Contains(out, w) {
					t.Errorf("output missing paper anchor %q", w)
				}
			}
		})
	}
}

func TestWorkloadExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset-building experiments in -short mode")
	}
	for _, e := range Experiments {
		if _, ok := anchors[e.Name]; ok {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) { runGolden(t, e) })
	}
}

// runGolden runs e at goldenScale, holds its output to
// testdata/<name>.golden and returns it.
func runGolden(t *testing.T, e Experiment) string {
	t.Helper()
	out, err := e.Run(goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", e.Name+".golden"), out)
	return out
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/exp -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (-want +got):\n%s", path, lineDiff(string(want), got))
	}
}

// lineDiff renders a minimal line diff of want and got from their
// longest common subsequence: "-" lines only in want, "+" lines only in
// got, unchanged lines indented.
func lineDiff(want, got string) string {
	lines := func(s string) []string { return strings.Split(strings.TrimSuffix(s, "\n"), "\n") }
	a, b := lines(want), lines(got)
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var d strings.Builder
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			d.WriteString("  " + a[i] + "\n")
			i, j = i+1, j+1
		case j == len(b) || (i < len(a) && lcs[i+1][j] >= lcs[i][j+1]):
			d.WriteString("- " + a[i] + "\n")
			i++
		default:
			d.WriteString("+ " + b[j] + "\n")
			j++
		}
	}
	return d.String()
}

func TestLineDiff(t *testing.T) {
	got := lineDiff("a\nb\nc\n", "a\nB\nc\nd\n")
	want := "  a\n- b\n+ B\n  c\n+ d\n"
	if got != want {
		t.Errorf("lineDiff:\n%s\nwant:\n%s", got, want)
	}
}

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.Name)
		}
	}
}
