package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Everything in this file reads the host from outside the programs
// under test: /proc/stat for steal, /proc/<pid>/stat and status for
// the servers' CPU and memory, and the facts every result carries.

// clockTick is USER_HZ. Linux fixes it at 100 on every architecture Go
// runs on, and reading it properly needs cgo.
const clockTick = 100

func ticksToUs(t uint64) float64 { return float64(t) * 1e6 / clockTick }

// hostCPU is the aggregate "cpu" line of /proc/stat, in ticks.
type hostCPU struct {
	total, steal uint64
}

// parseHostCPU reads the first line of /proc/stat:
// cpu user nice system idle iowait irq softirq steal guest guest_nice.
// Guest time is already inside user, so the total stops at steal.
func parseHostCPU(text string) (hostCPU, error) {
	line, _, _ := strings.Cut(text, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var h hostCPU
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("/proc/stat: field %d of %q: %w", i, line, err)
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h, nil
}

// readHostCPU samples /proc/stat; on a host without it steal reads 0,
// which the result's host facts make visible (steal_source).
func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	h, err := parseHostCPU(string(data))
	if err != nil {
		return hostCPU{}
	}
	return h
}

// stealShareSince is the share of all CPU ticks since `before` that the
// hypervisor gave to someone else.
func (h hostCPU) stealShareSince(before hostCPU) float64 {
	if h.total <= before.total {
		return 0
	}
	return float64(h.steal-before.steal) / float64(h.total-before.total)
}

// parsePidStat returns utime+stime, in ticks, from /proc/<pid>/stat.
// The command name may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parsePidStat(text string) (uint64, error) {
	at := strings.LastIndexByte(text, ')')
	if at < 0 {
		return 0, fmt.Errorf("pid stat: no command field in %q", text)
	}
	f := strings.Fields(text[at+1:])
	// After the command: state(0) ppid pgrp session tty tpgid flags
	// minflt cminflt majflt cmajflt utime(11) stime(12).
	if len(f) < 13 {
		return 0, fmt.Errorf("pid stat: %d fields after command, want 13", len(f))
	}
	u, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("pid stat: utime: %w", err)
	}
	s, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("pid stat: stime: %w", err)
	}
	return u + s, nil
}

// parseVmHWM returns the peak resident set, in kB, from
// /proc/<pid>/status.
func parseVmHWM(text string) (uint64, error) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("pid status: unexpected VmHWM line %q", line)
			}
			return strconv.ParseUint(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("pid status: no VmHWM line")
}

// pidSet names the server-side processes of a deployment. pid 0 means
// "no such process" (a direct workload has no router; the in-process
// smoke test has neither).
type pidSet struct {
	servers []int
	router  int
}

type cpuSample struct {
	servers, router uint64
}

func pidTicks(pid int) uint64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0 // the process is gone; fleet.firstDeath reports that
	}
	t, err := parsePidStat(string(data))
	if err != nil {
		return 0
	}
	return t
}

func (p pidSet) cpuTicks() cpuSample {
	var s cpuSample
	for _, pid := range p.servers {
		s.servers += pidTicks(pid)
	}
	if p.router != 0 {
		s.router = pidTicks(p.router)
	}
	return s
}

// rssMB sums the peak resident sets of every server-side process.
func (p pidSet) rssMB() float64 {
	var kb uint64
	pids := p.servers
	if p.router != 0 {
		pids = append(append([]int(nil), pids...), p.router)
	}
	for _, pid := range pids {
		data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
		if err != nil {
			continue
		}
		if v, err := parseVmHWM(string(data)); err == nil {
			kb += v
		}
	}
	return float64(kb) / 1024
}

// selfCPUUs is the generator's own CPU time in microseconds.
func selfCPUUs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
}

// hostFacts go into every result, so two files can be told apart
// before their numbers are compared.
type hostFacts struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`
	GitCommit   string `json:"git_commit"`
	CPUModel    string `json:"cpu_model"`
	Kernel      string `json:"kernel"`
	Loopback    string `json:"loopback"`
	StealSource string `json:"steal_source"`
	// MultiCore says what this box cannot show.
	MultiCore string `json:"multi_core_scaling"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
		CPUModel:   "unknown",
		Kernel:     "unknown",
		Loopback:   "unknown",
		MultiCore:  "unmeasured: generator and servers share the CPUs listed here",
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	if ifc, err := net.InterfaceByName("lo"); err == nil {
		h.Loopback = fmt.Sprintf("lo 127.0.0.1 mtu %d", ifc.MTU)
	}
	if _, err := os.Stat("/proc/stat"); err == nil {
		h.StealSource = "/proc/stat"
	} else {
		h.StealSource = "none: steal reads 0"
	}
	return h
}
