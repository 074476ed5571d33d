package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule draws the arrival offsets of a Poisson process at rate
// arrivals per second over dur: independent users, an open loop.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// arrival is the timing of one open-loop request.
type arrival struct {
	lag      time.Duration // how late the generator fired it
	slotWait time.Duration // from its due time until it held a connection slot
	latency  time.Duration // from its due time until do returned its end instant
	err      error
}

// openLoop fires request i at its due time start+offsets[i], whatever the
// earlier requests are doing, with at most slots requests in flight. Each
// request is timed from when it was due, so a stall that delays later
// requests (in the generator, for a slot, or in the server) counts in their
// latency. do returns the instant the request completed.
func openLoop(offsets []time.Duration, slots int, do func(i int, due time.Time) (time.Time, error)) []arrival {
	out := make([]arrival, len(offsets))
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i].lag = time.Since(due)
		sem <- struct{}{}
		out[i].slotWait = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			end, err := do(i, due)
			out[i].err = err
			out[i].latency = end.Sub(due)
		}(i, due)
	}
	wg.Wait()
	return out
}

// closedLoop runs conns workers, each starting its next request as soon as
// the previous one returns, until dur has passed.
func closedLoop(conns int, dur time.Duration, do func(worker int) error) (completed, failed int, elapsed time.Duration) {
	var ok, bad atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := do(w); err != nil {
					bad.Add(1)
				} else {
					ok.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return int(ok.Load()), int(bad.Load()), time.Since(start)
}
