package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/netsim"
	"pqtls/internal/tls13"
)

const (
	gridName = "paper-grid"
	// gridSamples is the fixed sample count per cell: 2·nproc on a
	// 2-CPU host, so RunCampaign's worker pool has work for every worker.
	// It does not follow nproc, so the pinned digest holds on any host.
	gridSamples = 4
	// gridDigest pins the rows of every cell at defaultSeed.
	gridDigest = "21adbc2a3396bc85d62bec639a672fd289bcded20482db5cae157a8ebc179977"
)

// gridCell is one cell of the paper grid.
type gridCell struct {
	table    string // "2a", "2b" or "4a"
	kem, sig string
	link     netsim.LinkConfig
	group    string // harness.cell_ms.<group>
}

// paperCells lists Table 2a (23 key agreements × rsa:2048), Table 2b (23
// signatures × x25519) and Table 4a (23 key agreements × the six
// netsim.Scenarios).
func paperCells() []gridCell {
	var cells []gridCell
	for _, k := range harness.Table2aKEMs {
		cells = append(cells, gridCell{"2a", k, harness.BaselineSig, harness.ScenarioTestbed, "kem." + kemFamily(k)})
	}
	for _, s := range harness.Table2bSigs {
		cells = append(cells, gridCell{"2b", harness.BaselineKEM, s, harness.ScenarioTestbed, "sig." + sigFamily(s)})
	}
	for _, k := range harness.Table2aKEMs {
		for _, sc := range netsim.Scenarios() {
			cells = append(cells, gridCell{"4a", k, harness.BaselineSig, sc, "link." + sc.Name})
		}
	}
	return cells
}

func kemFamily(k string) string {
	switch {
	case strings.Contains(k, "_"):
		return "hybrid"
	case strings.HasPrefix(k, "kyber90s"):
		return "kyber90s"
	case strings.HasPrefix(k, "kyber"):
		return "mlkem"
	case strings.HasPrefix(k, "hqc"):
		return "hqc"
	case strings.HasPrefix(k, "bike"):
		return "bike"
	}
	return "ecdh"
}

func sigFamily(s string) string {
	for _, p := range []string{"p256_", "p384_", "p521_", "rsa3072_"} {
		if strings.HasPrefix(s, p) {
			return "composite"
		}
	}
	switch {
	case strings.HasPrefix(s, "rsa"):
		return "rsa"
	case strings.HasPrefix(s, "dilithium"):
		return "mldsa"
	case strings.HasPrefix(s, "falcon"):
		return "falcon"
	}
	return "sphincs"
}

// options builds the cell's campaign, its samples spread over workers
// goroutines by RunCampaign. Table 2 cells take the seed itself and Table
// 4a cells seed+4, so defaultSeed reproduces the seeds the paper's tables
// use (1 and 5).
func (c gridCell) options(seed int64, workers int) harness.CampaignOptions {
	if c.table == "4a" {
		seed += 4
	}
	return harness.CampaignOptions{
		KEM: c.kem, Sig: c.sig, Link: c.link, Buffer: tls13.BufferImmediate,
		Samples: gridSamples, Seed: seed, Workers: workers, Timing: harness.TimingModel,
	}
}

// gridPass is one pass over every cell.
type gridPass struct {
	rows   []*harness.CampaignResult
	cellMS []float64
	wall   time.Duration
	failed int
	errs   []string
}

// runPass fills every cell once, in order, each through RunCampaign with
// workers sample workers.
func runPass(cells []gridCell, seed int64, workers int) gridPass {
	p := gridPass{rows: make([]*harness.CampaignResult, len(cells)), cellMS: make([]float64, len(cells))}
	start := time.Now()
	for i, c := range cells {
		t0 := time.Now()
		row, err := harness.RunCampaign(c.options(seed, workers))
		p.cellMS[i] = ms(time.Since(t0))
		if err != nil {
			p.failed++
			p.errs = append(p.errs, fmt.Sprintf("%s %s/%s/%s: %v", c.table, c.kem, c.sig, c.link.Name, err))
			continue
		}
		p.rows[i] = row
	}
	p.wall = time.Since(start)
	return p
}

// digest hashes every field of every row. Rows are modeled-time results,
// so they are a pure function of the cells and the seed.
func (p gridPass) digest() string {
	h := sha256.New()
	for _, r := range p.rows {
		if r == nil {
			fmt.Fprintln(h, "failed")
			continue
		}
		fmt.Fprintf(h, "%s|%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
			r.KEM, r.Sig, r.Link, r.Samples, r.PartAMedian, r.PartBMedian, r.TotalMedian,
			r.Handshakes60s, r.ClientBytes, r.ServerBytes, r.ClientPackets, r.ServerPackets,
			r.ClientCPU, r.ServerCPU)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// table4a rebuilds the Table 4a rows for harness.CheckLossMonotone.
func (p gridPass) table4a(cells []gridCell) []harness.ScenarioRow {
	var rows []harness.ScenarioRow
	idx := map[string]int{}
	for i, c := range cells {
		if c.table != "4a" || p.rows[i] == nil {
			continue
		}
		j, ok := idx[c.kem]
		if !ok {
			j = len(rows)
			idx[c.kem] = j
			rows = append(rows, harness.ScenarioRow{KEM: c.kem, Sig: c.sig, Latency: map[string]time.Duration{}})
		}
		rows[j].Latency[c.link.Name] = p.rows[i].TotalMedian
	}
	return rows
}

// setupGrid fills every cell once at defaultSeed. That builds every
// credential the grid presents, one after another as the cells first need
// them, warms the lazy tables, and gives the rows the benchmark pins: they
// must match gridDigest and pass harness.CheckLossMonotone.
func setupGrid(cells []gridCell, workers int) error {
	p := runPass(cells, defaultSeed, workers)
	if p.failed > 0 {
		return fmt.Errorf("cells failed: %s", strings.Join(p.errs, "; "))
	}
	if d := p.digest(); d != gridDigest {
		return fmt.Errorf("rows at seed %d have digest %s, want the pinned %s", defaultSeed, d, gridDigest)
	}
	if err := harness.CheckLossMonotone(p.table4a(cells)); err != nil {
		return fmt.Errorf("table 4a at seed %d: %w", defaultSeed, err)
	}
	return nil
}

// runGrid measures the paper grid at the run's seed. It makes at least two
// passes, and more while another, as long as the last, fits in the run's
// time; every pass must reproduce the first pass's rows exactly. Traced
// runs alternate unprofiled and profiled passes (ABBA).
func runGrid(ctx runCtx) *report {
	r := newReport(gridName)
	cells := paperCells()
	workers := ctx.host.NProc
	setups, err := childSetups(ctx, gridSetupRepeats-1)
	if err != nil {
		r.problem("set-up: %v", err)
		return r
	}
	t0 := time.Now()
	if err := setupGrid(cells, workers); err != nil {
		r.problem("set-up: %v", err)
		return r
	}
	setups = append(setups, time.Since(t0).Seconds())
	r.set("setup_s", median(setups), "s")
	r.note("setup_s is the median of %d cold set-ups (%d in fresh processes), each one fill of all %d cells at seed %d; all: %.3g",
		len(setups), len(setups)-1, len(cells), defaultSeed, setups)

	var (
		groupMS         = map[string][]float64{}
		allCells        []float64 // every cell's wall ms, over all passes
		rates, cpus     []float64 // per pass
		passes          int
		lastWall        time.Duration
		first           gridPass
		offSims, onSims int
		offEl, onEl     time.Duration
		rt              rtDelta
	)
	prof := newCPUProfile()
	smp := startSampler(nil)
	cal := &calibration{threads: workers}
	cal.take()
	abba := []bool{false, true, true, false}
	start := time.Now()
	for passes < 2 || time.Since(start)+lastWall <= ctx.dur {
		profiled := ctx.traced && abba[passes%4]
		if profiled {
			if err := prof.start(); err != nil {
				r.problem("%v", err)
			}
		}
		ru0, rt0 := readRusage(), readRuntime()
		p := runPass(cells, ctx.seed, workers)
		ru1, rt1 := readRusage(), readRuntime()
		if err := prof.stop(); err != nil {
			r.problem("%v", err)
		}
		passes++
		lastWall = p.wall
		n := (len(cells) - p.failed) * gridSamples
		rates = append(rates, float64(n)/p.wall.Seconds())
		cpus = append(cpus, perHS(us(ru1.cpu-ru0.cpu), n))
		allCells = append(allCells, p.cellMS...)
		cal.take()
		r.attempted += len(cells)
		r.failed += p.failed
		for _, e := range p.errs {
			r.problem("cell failed: %s", e)
		}
		for i, v := range p.cellMS {
			groupMS[cells[i].group] = append(groupMS[cells[i].group], v)
		}
		if passes == 1 {
			first = p
		} else if d, want := p.digest(), first.digest(); d != want {
			r.problem("pass %d rows differ from pass 1 (digest %s, want %s)", passes, d, want)
		}
		if profiled {
			onSims += n
			onEl += p.wall
		} else {
			offSims += n
			offEl += p.wall
			rt.add(rt0, rt1)
		}
	}
	smp.finish()

	sorted := sortedCopy(allCells)
	p50, _ := quantile(sorted, 0.50)
	r.set("p50_ms", p50, "ms")
	if supported(sorted, 0.99) {
		p99, _ := quantile(sorted, 0.99)
		r.set("p99_ms", p99, "ms")
	} else {
		r.note("p99_ms not reported: it needs 1000 cells, %d passes filled %d", passes, len(allCells))
	}
	rate := median(rates)
	setThroughput(r, rate, median(cpus), cal)
	r.set("grid_hs_per_s", rate, "1/s")
	r.set("max_rss_mib", float64(readRusage().maxRSS)/1024, "MiB")
	r.note("p50_ms/p99_ms on the grid are per-cell wall times (%d samples per cell over %d workers); hs_per_s counts simulated handshakes",
		gridSamples, workers)
	r.note("%d passes of %d cells: %.1f-%.1f hs/s", passes, len(cells), minOf(rates), maxOf(rates))
	if r.attempted > 0 {
		r.set("fail_ratio", float64(r.failed)/float64(r.attempted), "ratio")
	}

	if err := harness.CheckLossMonotone(first.table4a(cells)); err != nil {
		r.problem("table 4a at seed %d: %v", ctx.seed, err)
	}

	if ctx.traced {
		for _, d := range harnessLayer {
			r.set(d.name, mean(groupMS[strings.TrimPrefix(d.name, "harness.cell_ms.")]), "ms")
		}
		shares := prof.shares()
		for _, m := range shareModules {
			r.set("cpu_share."+m, shares[m], "frac")
		}
		r.set("rt.gc_cpu_frac", rt.gcFrac(), "frac")
		r.set("rt.alloc_bytes_per_hs", perHS(float64(rt.allocBytes), offSims), "B")
		r.set("rt.allocs_per_hs", perHS(float64(rt.allocObjs), offSims), "count")
		r.set("rt.sched_lat_p99_us", rt.schedP99us(), "us")
		r.set("rt.goroutines_max", float64(smp.gmax), "count")
		r.set("trace.overhead_frac", 1-(float64(onSims)/onEl.Seconds())/(float64(offSims)/offEl.Seconds()), "frac")
		noLive := "the grid drives the handshake state machines in simulation, with no sockets or hooks"
		r.absent(names(concatDefs(kemLayer, sigLayer, tlsLayer, ticketIssueLayer, ticketRedeemLayer)), noLive)
		r.absent(names(concatDefs(liveLayer, netLayer, attributionLayer)), noLive)
		r.absent(names(concatDefs(modelKEMLayer, modelSigLayer)), "the grid charges the cost model itself")
	}
	return r
}
