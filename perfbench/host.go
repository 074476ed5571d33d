package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// hostInfo is stamped into every result: this host's speed drifts between
// sessions, so a number is only comparable with its hardware and toolchain.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		h.Kernel = b.String()
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s kernel=%s",
		h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Kernel)
}

// rusage is the process's CPU time (user + system, every goroutine of
// both ends) and its peak resident set.
type rusage struct {
	cpu    time.Duration
	maxRSS int64 // KiB
}

func readRusage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{}
	}
	return rusage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: int64(ru.Maxrss),
	}
}

// Go runtime metrics the benchmark reads.
const (
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmAllocObjs  = "/gc/heap/allocs:objects"
	rmSchedLat   = "/sched/latencies:seconds"
	rmGoroutines = "/sched/goroutines:goroutines"
)

// rtSnap is one reading of the cumulative runtime metrics.
type rtSnap struct {
	gcCPU, totalCPU       float64
	allocBytes, allocObjs uint64
	schedBuckets          []float64
	schedCounts           []uint64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmAllocBytes}, {Name: rmAllocObjs}, {Name: rmSchedLat}}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return rtSnap{
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
		allocBytes:   s[2].Value.Uint64(),
		allocObjs:    s[3].Value.Uint64(),
		schedBuckets: append([]float64(nil), h.Buckets...),
		schedCounts:  append([]uint64(nil), h.Counts...),
	}
}

func goroutines() int64 {
	s := []metrics.Sample{{Name: rmGoroutines}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// rtDelta accumulates runtime-metric differences over measurement blocks.
type rtDelta struct {
	gcCPU, totalCPU       float64
	allocBytes, allocObjs uint64
	schedCounts           []uint64
	schedBuckets          []float64
}

func (d *rtDelta) add(from, to rtSnap) {
	d.gcCPU += to.gcCPU - from.gcCPU
	d.totalCPU += to.totalCPU - from.totalCPU
	d.allocBytes += to.allocBytes - from.allocBytes
	d.allocObjs += to.allocObjs - from.allocObjs
	if d.schedCounts == nil {
		d.schedCounts = make([]uint64, len(to.schedCounts))
		d.schedBuckets = to.schedBuckets
	}
	for i := range to.schedCounts {
		d.schedCounts[i] += to.schedCounts[i] - from.schedCounts[i]
	}
}

// gcFrac is the share of the Go runtime's CPU time spent in the GC.
func (d *rtDelta) gcFrac() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

// schedP99us is the 99th percentile scheduler latency in µs, read as the
// upper edge of the histogram bucket holding it.
func (d *rtDelta) schedP99us() float64 {
	var total uint64
	for _, c := range d.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range d.schedCounts {
		cum += c
		if cum >= target {
			edge := d.schedBuckets[i+1]
			if math.IsInf(edge, 1) {
				edge = d.schedBuckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}
