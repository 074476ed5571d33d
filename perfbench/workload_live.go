package main

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/obs"
	"pqtls/internal/tls13"
)

// dilithium3SignBench10 is the fixed-pair dilithium3/sign kernel recorded
// in BENCH_10.json (µs), printed beside the sign time measured over
// distinct transcripts.
const dilithium3SignBench10 = 2727.44

// openShare is the share of a live run spent in the open loop; the closed
// loop takes the rest. p99 is only reported from 1000 arrivals up, which
// full-pq, at its rate, reaches only in runs of 20 s or more.
const openShare = 0.5

// liveRun is one run of a live workload.
type liveRun struct {
	spec  liveSpec
	ctx   runCtx
	r     *report
	env   *liveEnv
	slots int
	base  live.Counters // server counters when measurement began
}

func runLive(spec liveSpec, ctx runCtx) *report {
	lr := &liveRun{spec: spec, ctx: ctx, r: newReport(spec.name), slots: ctx.host.NProc}
	r := lr.r
	setups, err := childSetups(ctx, liveSetupRepeats-1)
	if err != nil {
		r.problem("set-up: %v", err)
		return r
	}
	t0 := time.Now()
	env, err := setupLive(spec, ctx.traced)
	if err != nil {
		r.problem("set-up: %v", err)
		return r
	}
	setups = append(setups, time.Since(t0).Seconds())
	r.set("setup_s", median(setups), "s")
	r.note("setup_s is the median of %d cold set-ups, %d of them in fresh processes", len(setups), len(setups)-1)
	lr.env = env
	lr.base = env.srv.Counters()

	openDur := time.Duration(openShare * float64(ctx.dur))
	offsets := poissonSchedule(rand.New(rand.NewSource(ctx.seed)), spec.rate, openDur)
	if ctx.traced {
		lr.tracedRun(offsets, ctx.dur-openDur)
	} else {
		lr.untracedRun(offsets, ctx.dur-openDur)
	}
	lr.finish()
	return r
}

// untracedRun measures the end-to-end metrics. The closed loop runs in
// blocks of about a second; hs_per_s and cpu_us_per_hs are the medians of
// the per-block values.
func (lr *liveRun) untracedRun(offsets []time.Duration, closedDur time.Duration) {
	r, e := lr.r, lr.env
	cal := &calibration{threads: lr.slots}
	cal.take()
	arrs := e.open(offsets, lr.slots, false)
	cal.take()

	var rates, cpus []float64
	for _, d := range blocks(closedDur) {
		ru0 := readRusage()
		done, failed, elapsed := e.closed(lr.slots, d, false)
		ru1 := readRusage()
		r.attempted += done + failed
		r.failed += failed
		rates = append(rates, float64(done)/elapsed.Seconds())
		cpus = append(cpus, perHS(us(ru1.cpu-ru0.cpu), done))
		cal.take()
	}
	lr.latency(arrs)
	setThroughput(r, median(rates), median(cpus), cal)
	r.set("max_rss_mib", float64(readRusage().maxRSS)/1024, "MiB")
	r.note("closed loop: %d connections, %d blocks of %v: %.1f-%.1f hs/s",
		lr.slots, len(rates), closedDur/time.Duration(len(rates)), minOf(rates), maxOf(rates))
}

// setThroughput reports hs_per_s and cpu_us_per_hs as measured, and the
// same scaled to the calibration's reference speed (the _ref metrics, which
// BENCHMARK.json bounds): the host's speed drifts by tens of percent between
// runs, and the calibration, which runs none of the program's code, moves
// with it.
func setThroughput(r *report, hsPerS, cpuUS float64, cal *calibration) {
	slow := cal.slowdown()
	r.set("hs_per_s", hsPerS, "1/s")
	r.set("cpu_us_per_hs", cpuUS, "us")
	r.set("hs_per_s_ref", hsPerS*slow, "1/s")
	r.set("cpu_us_per_hs_ref", cpuUS/slow, "us")
	r.note("calibration: median %.3f ms over %d readings, %.3f× the reference %.1f ms", median(cal.ms), len(cal.ms), slow, calRefMS)
}

// blocks splits d into measurement blocks of about a second, at least four.
func blocks(d time.Duration) []time.Duration {
	n := int(d / time.Second)
	if n < 4 {
		n = 4
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d / time.Duration(n)
	}
	return out
}

func minOf(xs []float64) float64 { return sortedCopy(xs)[0] }
func maxOf(xs []float64) float64 { return sortedCopy(xs)[len(xs)-1] }

// latency reports the open-loop latency metrics, each handshake timed from
// its due time and a failure counting as +Inf.
func (lr *liveRun) latency(arrs []arrival) {
	r := lr.r
	lat := make([]float64, len(arrs))
	var lags, waits []float64
	failed := 0
	for i, a := range arrs {
		lags = append(lags, ms(a.lag))
		waits = append(waits, ms(a.slotWait))
		if a.err != nil {
			failed++
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = ms(a.latency)
	}
	r.attempted += len(arrs)
	r.failed += failed

	sorted := sortedCopy(lat)
	p50, _ := quantile(sorted, 0.50)
	r.set("p50_ms", p50, "ms")
	if supported(sorted, 0.99) {
		p99, _ := quantile(sorted, 0.99)
		r.set("p99_ms", p99, "ms")
	} else {
		r.note("p99_ms not reported: it needs 1000 arrivals, the open loop had %d", len(sorted))
	}
	q, tail, _ := highestTail(sorted)
	r.note("open loop: %d arrivals at %.0f/s, %d failed; highest supported tail p%g %.3f ms",
		len(arrs), lr.spec.rate, failed, q*100, tail)
	lagSorted := sortedCopy(lags)
	lagP99, _ := quantile(lagSorted, 0.99)
	r.note("generator lag p99 %.3f ms, slot wait p50 %.3f ms", lagP99, median(waits))
	if lr.ctx.traced {
		r.set("gen.slot_wait_p50_ms", median(waits), "ms")
		r.set("gen.lag_p99_ms", lagP99, "ms")
	}
}

// sampler polls the goroutine count, and the server's in-flight gauge when
// there is one, while a window runs.
type sampler struct {
	stop     chan struct{}
	done     sync.WaitGroup
	inflight []float64
	gmax     int64
}

func startSampler(gauge *obs.Gauge) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if gauge != nil {
					s.inflight = append(s.inflight, float64(gauge.Value()))
				}
				if g := goroutines(); g > s.gmax {
					s.gmax = g
				}
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}

// tracedRun measures the per-layer metrics. The open loop runs with hooks
// on both ends; the closed loop alternates untraced and traced blocks
// (ABBA) to measure the tracing overhead, with the CPU profile over the
// traced blocks and the runtime metrics over the untraced ones.
func (lr *liveRun) tracedRun(offsets []time.Duration, closedDur time.Duration) {
	r, e := lr.r, lr.env
	st := e.srvTrace
	inflight := e.srv.Registry().Gauge(live.MetricInflight, "")

	// Open loop, traced.
	c0 := e.srv.Counters()
	srv0 := st.snapshot()
	cli0, n0 := e.clientSnapshot()
	sign0 := len(st.signSamples())
	st.on.Store(true)
	smp := startSampler(inflight)
	arrs := e.open(offsets, lr.slots, true)
	smp.finish()
	st.on.Store(false)
	c1 := e.srv.Counters()
	srvD := st.snapshot().minus(srv0)
	cli1, n1 := e.clientSnapshot()
	cliD := cli1.minus(cli0)
	lr.latency(arrs)
	lr.layers(cliD, srvD, n1-n0, int(c1.Completed-c0.Completed), e.hs[n0:n1], st.signSamples()[sign0:])
	r.set("live.accepted", float64(c1.Accepted-c0.Accepted), "count")
	r.set("live.completed", float64(c1.Completed-c0.Completed), "count")
	r.set("live.resumed", float64(c1.Resumed-c0.Resumed), "count")
	r.set("live.failed", float64(c1.FailedTotal()-c0.FailedTotal()), "count")
	r.set("live.inflight_mean", mean(smp.inflight), "count")

	// Closed loop in ABBA blocks.
	prof := newCPUProfile()
	var rt rtDelta
	var offHS, onHS int
	var offEl, onEl, onCPU, onAttributed time.Duration
	smp = startSampler(inflight)
	block := closedDur / 4
	for _, traced := range []bool{false, true, true, false} {
		var srvA *phaseAgg
		var cliA *phaseAgg
		if traced {
			srvA = st.snapshot()
			cliA, _ = e.clientSnapshot()
			if err := prof.start(); err != nil {
				r.problem("%v", err)
			}
			st.on.Store(true)
		}
		rt0, ru0 := readRuntime(), readRusage()
		done, failed, el := e.closed(lr.slots, block, traced)
		rt1, ru1 := readRuntime(), readRusage()
		r.attempted += done + failed
		r.failed += failed
		if !traced {
			offHS += done
			offEl += el
			rt.add(rt0, rt1)
			continue
		}
		st.on.Store(false)
		if err := prof.stop(); err != nil {
			r.problem("%v", err)
		}
		onHS += done
		onEl += el
		onCPU += ru1.cpu - ru0.cpu
		cliB, _ := e.clientSnapshot()
		onAttributed += clientBusy(cliB.minus(cliA)) + serverBusy(st.snapshot().minus(srvA))
	}
	smp.finish()
	offRate := float64(offHS) / offEl.Seconds()
	onRate := float64(onHS) / onEl.Seconds()
	r.set("trace.overhead_frac", 1-onRate/offRate, "frac")
	r.note("closed loop: untraced %.1f hs/s, traced %.1f hs/s", offRate, onRate)
	r.set("rt.gc_cpu_frac", rt.gcFrac(), "frac")
	r.set("rt.alloc_bytes_per_hs", perHS(float64(rt.allocBytes), offHS), "B")
	r.set("rt.allocs_per_hs", perHS(float64(rt.allocObjs), offHS), "count")
	r.set("rt.sched_lat_p99_us", rt.schedP99us(), "us")
	r.set("rt.goroutines_max", float64(smp.gmax), "count")
	r.set("cpu.attributed_frac", float64(onAttributed)/float64(onCPU), "frac")
	shares := prof.shares()
	for _, m := range shareModules {
		r.set("cpu_share."+m, shares[m], "frac")
	}
	r.absent(names(harnessLayer), "the paper grid runs no live handshakes")
}

// clientBusy is the client's phase self time that is work: every phase
// except its idle wait for the server's next flight.
func clientBusy(a *phaseAgg) time.Duration {
	return a.covered() - a.dur[tls13.PhaseFlightWait]
}

// serverBusy is the server's phased time: its top-level phases, whole.
func serverBusy(a *phaseAgg) time.Duration {
	var t time.Duration
	for _, p := range serverTopLevel {
		t += a.dur[p]
	}
	return t
}

// layers reports the per-phase metrics of the traced open loop: means per
// completed handshake of the client's phase self times and the server's
// whole phase durations. The server's record, cert-write, sign and
// finished times therefore include the record seals inside them.
func (lr *liveRun) layers(cli, srv *phaseAgg, nCli, nSrv int, hs []hsTiming, sign []float64) {
	r := lr.r
	c := func(phases ...string) float64 {
		var t time.Duration
		for _, p := range phases {
			t += cli.dur[p]
		}
		return perHS(us(t), nCli)
	}
	s := func(phases ...string) float64 {
		var t time.Duration
		for _, p := range phases {
			t += srv.dur[p]
		}
		return perHS(us(t), nSrv)
	}
	r.set("kem.keygen_us", c(tls13.PhaseKEMKeygen), "us")
	r.set("kem.encap_us", s(tls13.PhaseKEMEncap), "us")
	r.set("kem.decap_us", c(tls13.PhaseKEMDecap), "us")
	model := harness.DefaultCostModel
	ratio := func(v float64, op, alg string) float64 { return v / us(model.Cost(op, alg)) }
	r.set("model_ratio.kem_keygen", ratio(c(tls13.PhaseKEMKeygen), tls13.OpKEMKeygen, lr.spec.kem), "ratio")
	r.set("model_ratio.kem_encaps", ratio(s(tls13.PhaseKEMEncap), tls13.OpKEMEncaps, lr.spec.kem), "ratio")
	r.set("model_ratio.kem_decaps", ratio(c(tls13.PhaseKEMDecap), tls13.OpKEMDecaps, lr.spec.kem), "ratio")

	if lr.spec.resume {
		r.absent(names(sigLayer), "resumed handshakes skip the certificate and CertificateVerify")
		r.absent(names(modelSigLayer), "resumed handshakes sign and verify nothing")
		r.absent(names(ticketIssueLayer), "resumed handshakes mint no tickets")
		r.set("tls13.srv.ticket_redeem_us", s(tls13.PhaseTicketRedeem), "us")
	} else {
		signSorted := sortedCopy(sign)
		p50, _ := quantile(signSorted, 0.50)
		p90, _ := quantile(signSorted, 0.90)
		r.set("sig.sign_us", s(tls13.PhaseCVSign), "us")
		r.set("sig.sign_p50_us", p50, "us")
		r.set("sig.sign_p90_us", p90, "us")
		r.set("sig.verify_us", c(tls13.PhaseCVVerify), "us")
		r.set("pki.cert_verify_us", c(tls13.PhaseCertVerify), "us")
		r.set("tls13.srv.cert_write_us", s(tls13.PhaseCertWrite), "us")
		r.set("model_ratio.sig_sign", ratio(s(tls13.PhaseCVSign), tls13.OpSigSign, lr.spec.sig), "ratio")
		r.set("model_ratio.sig_verify", ratio(c(tls13.PhaseCVVerify), tls13.OpSigVerify, lr.spec.sig), "ratio")
		r.set("tls13.srv.ticket_issue_us", s(tls13.PhaseTicketIssue), "us")
		r.set("tls13.cli.ticket_process_us", c(tls13.PhaseTicketProcess), "us")
		r.absent(names(ticketRedeemLayer), "full handshakes present no ticket")
		r.note("%s sign over %d distinct transcripts: p50 %.1f µs, p90 %.1f µs, mean %.1f µs; BENCH_10 fixed-pair dilithium3/sign %.1f µs",
			lr.spec.sig, len(sign), p50, p90, mean(sign), dilithium3SignBench10)
	}
	r.set("tls13.cli.record_us", c(tls13.PhaseRecordRead, tls13.PhaseRecordWrite), "us")
	r.set("tls13.srv.record_us", s(tls13.PhaseRecordRead, tls13.PhaseRecordWrite), "us")
	r.set("tls13.cli.finished_us", c(tls13.PhaseFinSend, tls13.PhaseFinVerify), "us")
	r.set("tls13.srv.finished_us", s(tls13.PhaseFinSend, tls13.PhaseFinVerify), "us")
	r.set("tls13.srv.ch_parse_us", s(tls13.PhaseCHParse), "us")
	r.set("tls13.cli.libcrypto_us", perHS(us(cli.lib[tls13.LibCrypto]), nCli), "us")
	r.set("tls13.cli.libssl_us", perHS(us(cli.lib[tls13.LibSSL]), nCli), "us")
	r.set("tls13.srv.libcrypto_us", perHS(us(srv.lib[tls13.LibCrypto]), nSrv), "us")
	r.set("tls13.srv.libssl_us", perHS(us(srv.lib[tls13.LibSSL]), nSrv), "us")

	var self, dial, wait []float64
	for _, t := range hs {
		self = append(self, t.SpanUS-t.CoveredUS)
		dial = append(dial, t.DialUS)
		wait = append(wait, t.WaitUS)
	}
	r.set("tls13.cli.self_us", mean(self), "us")
	r.set("net.dial_us", mean(dial), "us")
	r.set("net.flight_wait_us", mean(wait), "us")
}

// finish stops the server and applies the correctness gates.
func (lr *liveRun) finish() {
	r, e := lr.r, lr.env
	if err := e.shutdown(); err != nil {
		r.problem("server shutdown: %v", err)
	}
	c := e.srv.Counters()
	if got, want := c.Completed, uint64(e.completed.Load()); got != want {
		r.problem("server completed %d handshakes, client completed %d", got, want)
	}
	measured := c.Completed - lr.base.Completed
	if lr.spec.resume {
		if resumed := c.Resumed - lr.base.Resumed; resumed != measured {
			r.problem("server resumed %d of %d measured handshakes", resumed, measured)
		}
	} else if issued, processed := e.srv.TicketStats().Issued, uint64(e.tickets.Load()); issued != processed {
		r.problem("server issued %d tickets, client processed %d", issued, processed)
	}
	if r.attempted > 0 {
		r.set("fail_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	}
	if n := c.FailedTotal(); n > 0 {
		r.note("server-side failures by class: %v", c.Failed)
	}
	if lr.ctx.traced {
		if err := writeArtifact(lr.ctx.outDir, lr.ctx.artifactName("spans"), map[string]any{
			"host": lr.ctx.host, "workload": lr.spec.name, "seed": lr.ctx.seed,
			"client_spans": e.spans, "client_handshakes": e.hs,
			"server_phase_us": toUS(e.srvTrace.snapshot().dur),
			"server_lib_us":   toUS(e.srvTrace.snapshot().lib),
		}); err != nil {
			r.note("span file not written: %v", err)
		}
	}
}

func toUS(m map[string]time.Duration) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		out[k] = us(v)
	}
	return out
}
