package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"quicsand/internal/telemetry"
)

// host is the fingerprint printed next to every result: timings from
// different hosts are not comparable, counts are.
type host struct {
	NumCPU     int             `json:"nproc"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	CPUModel   string          `json:"cpu_model"`
	OS         string          `json:"os_arch"`
	Build      telemetry.Build `json:"build"`
}

func fingerprint() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Build:      telemetry.Provenance(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (h host) print(w io.Writer) {
	fmt.Fprintf(w, "# host nproc=%d gomaxprocs=%d cpu=%q %s %s module=%s rev=%s dirty=%v\n",
		h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.OS, h.Build.GoVersion, h.Build.Module, h.Build.Revision, h.Build.Dirty)
}
