package metrics

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

var (
	startTime = time.Now()

	buildOnce     sync.Once
	buildVersion  string
	buildRevision string
)

// buildIdentity resolves the version/revision labels once. The values
// come from the runtime's embedded build info, so they are correct for
// any caller (server, router, tests) without threading flags around.
func buildIdentity() (version, goVersion, revision string) {
	buildOnce.Do(func() {
		buildVersion, buildRevision = "unknown", "unknown"
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.Main.Version != "" {
			buildVersion = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				buildRevision = s.Value
			}
		}
	})
	return buildVersion, runtime.Version(), buildRevision
}

// Process is the process-identity families both tiers end their
// exposition with, so every scrape says which build answered it and
// since when: the conventional constant-1 info metric with the build
// identity as labels (module version, Go toolchain, VCS revision when the
// binary was built from a checkout), and the seconds since this process's
// metrics layer was initialized — a restart detector that needs no
// server-side state.
var Process = Bind(func() time.Time { return startTime },
	Family[time.Time]{Desc: Desc{Name: "caram_build_info", Help: "Build identity of this process (constant 1).",
		Type: TypeGauge, Labels: []string{"version", "go", "revision"}},
		Collect: func(_ time.Time, e *Emitter) {
			version, goVersion, revision := buildIdentity()
			e.Sample(1, version, goVersion, revision)
		}},
	Family[time.Time]{Desc: Desc{Name: "caram_uptime_seconds", Help: "Seconds since this process started serving metrics.",
		Type: TypeGauge}, Collect: Scalar(func(start time.Time) any { return time.Since(start).Seconds() })},
)
