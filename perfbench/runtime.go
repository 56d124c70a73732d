package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
)

// host is the machine and runtime block printed with every result, so a
// figure can be read against the hardware it was measured on.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GoVersion  string `json:"go_version"`
}

func hostInfo() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; "" when the
// file is absent or unreadable (non-Linux hosts).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// runtime/metrics samples read around every pass.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// rtSample is one reading of rtNames.
type rtSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
	liveBytes            uint64
}

// readRuntime forces a collection, so the CPU-class counters (updated at GC
// time) and the live heap are current, then reads rtNames.
func readRuntime() rtSample {
	runtime.GC()
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{
		allocBytes: u(0),
		gcCycles:   u(1),
		gcCPU:      f(2),
		totalCPU:   f(3),
		liveBytes:  u(4),
	}
}

// rtDelta is the runtime cost of one pass: bytes allocated, GC cycles run
// (excluding the collection readRuntime forces at the end) and the share of
// the process's CPU time spent in the collector.
type rtDelta struct {
	AllocMB   float64 `json:"alloc_mb"`
	GCCycles  float64 `json:"gc_cycles"`
	GCCPUFrac float64 `json:"gc_cpu_frac"`
	LiveMB    float64 `json:"heap_live_mb"`
}

func runtimeDelta(before, after rtSample) rtDelta {
	cycles := float64(after.gcCycles) - float64(before.gcCycles) - 1
	if cycles < 0 {
		cycles = 0
	}
	return rtDelta{
		AllocMB:   float64(after.allocBytes-before.allocBytes) / (1 << 20),
		GCCycles:  cycles,
		GCCPUFrac: ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU),
		LiveMB:    float64(after.liveBytes) / (1 << 20),
	}
}
