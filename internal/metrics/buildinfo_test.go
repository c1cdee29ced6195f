package metrics

import (
	"strconv"
	"strings"
	"testing"
)

// TestBuildInfoFamilies: both expositions — server and router — carry
// the process-identity families, so any scrape identifies the build
// that answered and how long it has been up.
func TestBuildInfoFamilies(t *testing.T) {
	server := prom(t, NewRegistry([]string{"db"}).Exposition())
	router := prom(t, NewRouterMetrics([]string{"b0"}).Exposition())

	for name, out := range map[string]string{"server": server, "router": router} {
		for _, want := range []string{
			"# TYPE caram_build_info gauge",
			"# TYPE caram_uptime_seconds gauge",
			`caram_build_info{version=`,
			`go="` + goVersionLabel(t) + `"`,
			`revision=`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("%s exposition missing %q\n%s", name, want, out)
			}
		}
		// The info metric is the conventional constant 1.
		i := strings.Index(out, `caram_build_info{`)
		if i < 0 {
			continue
		}
		line := out[i:]
		line = line[:strings.IndexByte(line, '\n')]
		if !strings.HasSuffix(line, "} 1") {
			t.Errorf("%s: build info sample not constant 1: %q", name, line)
		}
		// Uptime is a plausible non-negative seconds value.
		_, val, ok := strings.Cut(out, "\ncaram_uptime_seconds ")
		if !ok {
			t.Errorf("%s: no uptime sample", name)
			continue
		}
		val = val[:strings.IndexByte(val, '\n')]
		up, err := strconv.ParseFloat(val, 64)
		if err != nil || up < 0 {
			t.Errorf("%s: uptime sample %q", name, val)
		}
	}
}

// goVersionLabel returns the label value buildIdentity reports for the
// running toolchain.
func goVersionLabel(t *testing.T) string {
	t.Helper()
	_, gv, _ := buildIdentity()
	return gv
}
