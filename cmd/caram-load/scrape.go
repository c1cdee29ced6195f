package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// promSamples is one scrape of a /metrics endpoint: every series'
// value, summed per family name (the part before '{'). The harness
// only ever needs fleet-wide sums, so labels are dropped.
type promSamples map[string]float64

// parseProm reads the Prometheus text exposition format. Comment and
// blank lines are skipped; a line it cannot read is an error, so a
// format change in the product is noticed, not silently read as 0.
func parseProm(text string) (promSamples, error) {
	out := make(promSamples)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold
		// spaces but are always closed by '}' before it.
		at := strings.LastIndexByte(line, ' ')
		if at < 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[at+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value of %q: %w", line, err)
		}
		name := line[:at]
		if brace := strings.IndexByte(name, '{'); brace >= 0 {
			if !strings.HasSuffix(name, "}") {
				return nil, fmt.Errorf("metrics: unclosed labels in %q", line)
			}
			name = name[:brace]
		}
		out[name] += v
	}
	return out, nil
}

// scrape fetches and parses base+"/metrics".
func scrape(base string) (promSamples, error) {
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %s", base, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	return parseProm(string(body))
}

// scrapeAll sums the samples of several endpoints.
func scrapeAll(bases []string) (promSamples, error) {
	total := make(promSamples)
	for _, b := range bases {
		s, err := scrape(b)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			total[k] += v
		}
	}
	return total, nil
}

// parseKV reads the `WORD k=v k=v ...` shape of STATS and WAL STATUS
// replies into numbers; non-numeric values (sync=interval=5ms) are
// skipped.
func parseKV(reply string) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range strings.Fields(reply) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		if x, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] = x
		}
	}
	return out
}

// wireCmd sends one request line on a fresh connection and returns the
// reply line without its terminator.
func wireCmd(addr, line string) (string, error) {
	conn, err := dial(addr)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return "", err
	}
	if _, err := io.WriteString(conn, line+"\n"); err != nil {
		return "", fmt.Errorf("%s: write: %w", line, err)
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("%s: read: %w", line, err)
	}
	return strings.TrimRight(reply, "\r\n"), nil
}
