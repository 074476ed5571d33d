package main

import (
	"math/big"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// calRefMS is the reference speed the *_ref metrics are scaled to: what
// calibrate(2) measured, in ms, on a 2-vCPU Intel Xeon virtual machine with
// Go 1.24. Only ratios to it matter.
const calRefMS = 22.0

// calibration collects calibrate readings taken between measurement blocks.
type calibration struct {
	threads int
	ms      []float64
}

// calReadings is how many readings each take records: one reading swings
// by several percent with whatever else the host runs at that moment.
const calReadings = 5

func (c *calibration) take() {
	for i := 0; i < calReadings; i++ {
		c.ms = append(c.ms, ms(calibrate(c.threads)))
	}
}

// slowdown is how much slower than the reference the host ran this run:
// the median reading over calRefMS.
func (c *calibration) slowdown() float64 { return median(c.ms) / calRefMS }

// calibrate times a fixed piece of standard-library work (none of the
// program's code) on every CPU at once and returns the mean CPU time one
// thread needed for it. The work is 2048-bit modular exponentiation with
// math/big, whose integer multiply loops tax the CPU the way the
// handshakes' lattice and code arithmetic does: over 19 windows of ten 1-s
// blocks of a full-pq closed loop on a 2-vCPU Intel Xeon virtual machine,
// its time followed the CPU per handshake with correlation 0.91, a sha256
// loop's with 0.72. Running on all CPUs together makes it see what the
// workload sees: contention between this machine's own CPUs (hyperthread
// siblings), not just the speed of one. Thread CPU time leaves steal out.
func calibrate(threads int) time.Duration {
	per := make([]time.Duration, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			m := new(big.Int).Lsh(big.NewInt(1), 2048)
			m.Sub(m, big.NewInt(159))
			x := big.NewInt(3)
			c0 := threadCPU()
			for i := 0; i < 4; i++ {
				x.Exp(x, m, m)
			}
			per[t] = threadCPU() - c0
		}(t)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range per {
		sum += d
	}
	return sum / time.Duration(threads)
}

func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
