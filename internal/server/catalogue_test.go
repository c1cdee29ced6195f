package server

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"caram/internal/metrics"
	"caram/internal/wal"
)

const (
	catalogueOpen = "<!-- metric catalogue: generated from the declarations by TestMetricCatalogue; do not edit -->\n"
	catalogueEnd  = "<!-- end metric catalogue -->\n"
)

// TestMetricCatalogue holds README's metric table to the families both
// tiers declare — a server with a write-ahead log and a router — and
// the declarations to the naming rules: no two share a name (the process
// families both tiers end with are one declaration), every name matches
// ^caram_[a-z0-9_]+$, and a name ends _total exactly when its family is
// a counter. Rewrite the table with `go test ./internal/server -run
// MetricCatalogue -update`, never by hand.
func TestMetricCatalogue(t *testing.T) {
	srv, _ := walServer(t, t.TempDir(), wal.Options{})
	defer srv.Close() //nolint:errcheck
	tiers := []struct {
		name string
		fams []metrics.Desc
	}{
		{"server", srv.Exposition().Families()},
		{"router", metrics.NewRouterMetrics(nil).Exposition().Families()},
	}
	valid := regexp.MustCompile(`^caram_[a-z0-9_]+$`)
	var rows []metrics.Desc
	tier := map[string]string{}
	for _, tr := range tiers {
		seen := map[string]bool{}
		for _, d := range tr.fams {
			if seen[d.Name] {
				t.Errorf("%s: two families named %s", tr.name, d.Name)
			}
			seen[d.Name] = true
			if !valid.MatchString(d.Name) {
				t.Errorf("%s: name %q does not match %s", tr.name, d.Name, valid)
			}
			if (d.Type == metrics.TypeCounter) != strings.HasSuffix(d.Name, "_total") {
				t.Errorf("%s: %s is a %s; a name ends _total exactly when its family is a counter", tr.name, d.Name, d.Type)
			}
			if _, ok := tier[d.Name]; !ok {
				tier[d.Name] = tr.name
				rows = append(rows, d)
				continue
			}
			for _, r := range rows {
				if r.Name == d.Name && !reflect.DeepEqual(r, d) {
					t.Errorf("the tiers declare %s differently:\n  %+v\n  %+v", d.Name, r, d)
				}
			}
			tier[d.Name] = "both"
		}
	}

	var b strings.Builder
	b.WriteString(catalogueOpen)
	b.WriteString("| Family | Type | Labels | Help | Tier |\n|---|---|---|---|---|\n")
	for _, d := range rows {
		labels := make([]string, len(d.Labels))
		for i, l := range d.Labels {
			labels[i] = "`" + l + "`"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", d.Name, d.Type, strings.Join(labels, ", "),
			strings.ReplaceAll(d.Help, "|", `\|`), tier[d.Name])
	}
	b.WriteString(catalogueEnd)

	const readme = "../../README.md"
	text, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok1 := strings.Cut(string(text), catalogueOpen)
	old, tail, ok2 := strings.Cut(rest, catalogueEnd)
	if !ok1 || !ok2 {
		t.Fatalf("%s has no metric catalogue between %q and %q", readme, catalogueOpen, catalogueEnd)
	}
	if *updateGolden {
		if err := os.WriteFile(readme, []byte(head+b.String()+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := catalogueOpen + old + catalogueEnd; want != b.String() {
		t.Errorf("README's metric catalogue differs from the declarations; rerun with -update.\ngot:\n%s\nREADME:\n%s", b.String(), want)
	}
}
