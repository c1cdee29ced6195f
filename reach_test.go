package caram

import (
	"os/exec"
	"strings"
	"testing"
)

// TestInternalPackagesReachable fails when a caram/internal/... package
// is imported by nothing that ships or measures: not by a binary under
// cmd/, not by an example, not by this package's benchmarks. Such a
// package still compiles and still passes its own tests, which is how
// one sat unimported for ten PRs; here it fails the tier-1 suite the
// day its last importer goes.
func TestInternalPackagesReachable(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	list := func(args ...string) []string {
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
		}
		return strings.Split(strings.TrimSpace(string(out)), "\n")
	}
	reached := make(map[string]bool)
	// With -test a package built for a test binary is listed as
	// "path [importer.test]"; the path is the first field either way.
	for _, line := range list("-deps", "-test", "./cmd/...", "./examples/...", ".") {
		if f := strings.Fields(line); len(f) > 0 {
			reached[f[0]] = true
		}
	}
	for _, pkg := range list("./internal/...") {
		if !reached[pkg] {
			t.Errorf("%s is imported by nothing under cmd/, examples/ or the root benchmarks: use it or delete it", pkg)
		}
	}
}
