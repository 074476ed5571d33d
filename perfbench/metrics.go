package main

import "pqtls/internal/netsim"

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names; TestMetricListsMatchBenchmarkJSON keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees that stay steady
// enough on a shared virtual machine to bound a regression; every untraced
// run puts them in its result line. Throughput and CPU cost enter scaled to
// the calibration's reference speed (see setThroughput); every run also
// prints them as measured. The open-loop latency (p50_ms, p99_ms) is printed
// by every run too, but moves with the host's load by more than any bound
// a later change could be held to, so it is not in this list.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"hs_per_s_ref", "1/s"},
	{"cpu_us_per_hs_ref", "us"},
	{"max_rss_mib", "MiB"},
}

// Per-layer metric groups, printed by every traced run. A group a workload
// does not exercise reads 0 there, with a note saying why.
var (
	kemLayer = []metricDef{{"kem.keygen_us", "us"}, {"kem.encap_us", "us"}, {"kem.decap_us", "us"}}
	sigLayer = []metricDef{
		{"sig.sign_us", "us"}, {"sig.sign_p50_us", "us"}, {"sig.sign_p90_us", "us"},
		{"sig.verify_us", "us"}, {"pki.cert_verify_us", "us"}, {"tls13.srv.cert_write_us", "us"},
	}
	tlsLayer = []metricDef{
		{"tls13.cli.record_us", "us"}, {"tls13.srv.record_us", "us"},
		{"tls13.cli.finished_us", "us"}, {"tls13.srv.finished_us", "us"},
		{"tls13.srv.ch_parse_us", "us"}, {"tls13.cli.self_us", "us"},
		{"tls13.cli.libcrypto_us", "us"}, {"tls13.cli.libssl_us", "us"},
		{"tls13.srv.libcrypto_us", "us"}, {"tls13.srv.libssl_us", "us"},
	}
	ticketIssueLayer   = []metricDef{{"tls13.srv.ticket_issue_us", "us"}, {"tls13.cli.ticket_process_us", "us"}}
	ticketRedeemLayer  = []metricDef{{"tls13.srv.ticket_redeem_us", "us"}}
	liveLayer          = []metricDef{{"live.accepted", "count"}, {"live.completed", "count"}, {"live.resumed", "count"}, {"live.failed", "count"}, {"live.inflight_mean", "count"}}
	netLayer           = []metricDef{{"net.dial_us", "us"}, {"net.flight_wait_us", "us"}, {"gen.slot_wait_p50_ms", "ms"}, {"gen.lag_p99_ms", "ms"}}
	runtimeLayer       = []metricDef{{"rt.gc_cpu_frac", "frac"}, {"rt.alloc_bytes_per_hs", "B"}, {"rt.allocs_per_hs", "count"}, {"rt.sched_lat_p99_us", "us"}, {"rt.goroutines_max", "count"}}
	attributionLayer   = []metricDef{{"cpu.attributed_frac", "frac"}}
	modelKEMLayer      = []metricDef{{"model_ratio.kem_keygen", "ratio"}, {"model_ratio.kem_encaps", "ratio"}, {"model_ratio.kem_decaps", "ratio"}}
	modelSigLayer      = []metricDef{{"model_ratio.sig_sign", "ratio"}, {"model_ratio.sig_verify", "ratio"}}
	traceOverheadLayer = []metricDef{{"trace.overhead_frac", "frac"}}
	cpuShareLayer      = moduleDefs()
	harnessLayer       = harnessDefs()
)

// Cell groups of the paper grid, for harness.cell_ms.<group>.
var (
	kemFamilies = []string{"ecdh", "mlkem", "kyber90s", "hqc", "bike", "hybrid"}
	sigFamilies = []string{"rsa", "mldsa", "falcon", "sphincs", "composite"}
)

func moduleDefs() []metricDef {
	var out []metricDef
	for _, m := range shareModules {
		out = append(out, metricDef{"cpu_share." + m, "frac"})
	}
	return out
}

func harnessDefs() []metricDef {
	var out []metricDef
	for _, f := range kemFamilies {
		out = append(out, metricDef{"harness.cell_ms.kem." + f, "ms"})
	}
	for _, f := range sigFamilies {
		out = append(out, metricDef{"harness.cell_ms.sig." + f, "ms"})
	}
	for _, sc := range netsim.Scenarios() {
		out = append(out, metricDef{"harness.cell_ms.link." + sc.Name, "ms"})
	}
	return out
}

// perLayer is every per-layer metric, in BENCHMARK.json order.
var perLayer = concatDefs(
	kemLayer, sigLayer, tlsLayer, ticketIssueLayer, ticketRedeemLayer,
	liveLayer, netLayer, runtimeLayer, attributionLayer, cpuShareLayer,
	harnessLayer, modelKEMLayer, modelSigLayer, traceOverheadLayer,
)

func concatDefs(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

// unitOf returns a listed metric's unit.
func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.name == name {
			return d.unit
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return "count"
}
