package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"pqtls/internal/crypto/sha3"
	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/tls13"
)

// A stalled server delays every request queued behind it; timing from the
// due time must put that stall into the later requests' latency instead of
// hiding it, as timing from the actual send would.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	var server sync.Mutex
	offsets := make([]time.Duration, 20)
	for i := range offsets {
		offsets[i] = time.Duration(i+1) * 5 * time.Millisecond
	}
	arrs := openLoop(offsets, 2, func(i int, due time.Time) (time.Time, error) {
		server.Lock()
		defer server.Unlock()
		if i == 0 {
			time.Sleep(stall)
		}
		return time.Now(), nil
	})
	stallEnd := offsets[0] + stall
	for i, a := range arrs[1:] {
		due := offsets[i+1]
		if due >= stallEnd {
			continue
		}
		if want := stallEnd - due; a.latency < want {
			t.Errorf("arrival %d due at %v: latency %v, want at least the remaining stall %v", i+1, due, a.latency, want)
		}
	}
	// With two slots the generator itself runs late once both slots wait.
	if last := arrs[len(arrs)-1]; last.slotWait <= 0 && last.lag <= 0 {
		t.Errorf("expected the generator to report lag or slot wait after a stall, got %+v", last)
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if v, beyond := quantile(seq(1000), 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if supported(seq(999), 0.99) {
		t.Error("999 samples leave 9 beyond p99; p99 must not be supported")
	}
	if !supported(seq(1000), 0.99) {
		t.Error("1000 samples leave 10 beyond p99; p99 must be supported")
	}
	if q, v, ok := highestTail(seq(1000)); !ok || q != 0.99 || v != 990 {
		t.Errorf("highestTail(1..1000) = p%v %v %v, want p99 990", q*100, v, ok)
	}
	if q, _, ok := highestTail(seq(500)); !ok || q != 0.9 {
		t.Errorf("highestTail(1..500) = p%v, want p90", q*100)
	}
	if _, _, ok := highestTail(seq(19)); ok {
		t.Error("19 samples leave 9 beyond the median; no percentile is supported")
	}
	if v, _ := quantile([]float64{1, 2, 3, 4}, 0.5); v != 2 {
		t.Errorf("nearest-rank median of 1..4 = %v, want 2", v)
	}
	// Failures enter as +Inf: 5 of 1000 leave p99 finite, 20 make it +Inf.
	withFailures := func(n int) []float64 {
		xs := seq(1000 - n)
		for i := 0; i < n; i++ {
			xs = append(xs, math.Inf(1))
		}
		return sortedCopy(xs)
	}
	if v, _ := quantile(withFailures(5), 0.99); v != 990 {
		t.Errorf("p99 with 5 failures = %v, want 990", v)
	}
	if v, _ := quantile(withFailures(20), 0.99); !math.IsInf(v, 1) {
		t.Errorf("p99 with 20 failures = %v, want +Inf", v)
	}
}

func TestPhaseStackSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	var s phaseStack
	outer := s.push("outer", at(0))
	inner := s.push("inner", at(10))
	abandoned := s.push("abandoned", at(20))
	_ = abandoned
	if d, self, ok := s.pop(inner, at(40)); !ok || d != 30*time.Microsecond || self != 30*time.Microsecond {
		t.Errorf("inner: dur %v self %v ok %v; want 30µs, 30µs (the abandoned child stays in its self time)", d, self, ok)
	}
	if _, _, ok := s.pop(inner, at(50)); ok {
		t.Error("closing a phase twice must be ignored")
	}
	if d, self, ok := s.pop(outer, at(100)); !ok || d != 100*time.Microsecond || self != 70*time.Microsecond {
		t.Errorf("outer: dur %v self %v ok %v; want 100µs, 70µs", d, self, ok)
	}
	if len(s.open) != 0 {
		t.Errorf("%d phases left open", len(s.open))
	}
}

// A traced client handshake's phase self times plus its waits (phases
// themselves) and its dial never exceed the latency measured around it.
func TestTracedPhasesWithinLatency(t *testing.T) {
	for _, spec := range []liveSpec{fullPQ, resumePQ} {
		t.Run(spec.name, func(t *testing.T) {
			e, err := setupLive(spec, true)
			if err != nil {
				t.Fatal(err)
			}
			defer e.shutdown()
			e.srvTrace.on.Store(true)
			for i := 0; i < 8; i++ {
				h, err := e.tracedHandshake(e.session(i), time.Now())
				if err != nil {
					t.Fatal(err)
				}
				if h.CoveredUS+h.DialUS > h.LatencyUS {
					t.Errorf("handshake %d: phases %.1fµs + dial %.1fµs exceed latency %.1fµs", i, h.CoveredUS, h.DialUS, h.LatencyUS)
				}
				if h.WaitUS > h.CoveredUS {
					t.Errorf("handshake %d: flight waits %.1fµs are not covered by the flight-wait phases (%.1fµs)", i, h.WaitUS, h.CoveredUS)
				}
			}
			for _, sp := range e.spans {
				if sp.SelfUS < 0 || sp.SelfUS > sp.DurUS {
					t.Errorf("span %+v: self time outside [0, duration]", sp)
				}
			}
			cli, n := e.clientSnapshot()
			if n != 8 {
				t.Fatalf("%d traced handshakes recorded, want 8", n)
			}
			srv := e.srvTrace.snapshot()
			if got := cli.count[tls13.PhaseKEMKeygen]; got != 8 {
				t.Errorf("client kem-keygen phases = %d, want 8", got)
			}
			if got := srv.count[tls13.PhaseKEMEncap]; got != 8 {
				t.Errorf("server kem-encap phases = %d, want 8", got)
			}
			signs := srv.count[tls13.PhaseCVSign]
			if spec.resume && signs != 0 || !spec.resume && signs != 8 {
				t.Errorf("server cv-sign phases = %d on %s", signs, spec.name)
			}
		})
	}
}

func TestProfileFoldsByModule(t *testing.T) {
	p := newCPUProfile()
	if err := p.start(); err != nil {
		t.Skip(err)
	}
	buf := make([]byte, 1<<16)
	for deadline := time.Now().Add(400 * time.Millisecond); time.Now().Before(deadline); {
		sum := sha3.Sum256(buf)
		buf[0] = sum[0]
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if p.total == 0 {
		t.Skip("the profiler took no samples")
	}
	// The race detector's instrumentation takes a large share of its own,
	// so ask only that sha3 leads the reported modules by a wide margin.
	shares := p.shares()
	for _, m := range shareModules {
		if m != "sha3" && shares[m] >= shares["sha3"]/2 {
			t.Errorf("%s share %.2f rivals sha3's %.2f in a sha3-bound loop (by module: %v)", m, shares[m], shares["sha3"], p.byMod)
		}
	}
	if shares["sha3"] < 0.2 {
		t.Errorf("sha3 share = %.2f of a sha3-bound loop, want >= 0.2 (by module: %v)", shares["sha3"], p.byMod)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pqtls/internal/crypto/mldsa.(*SigningKey).Sign": "mldsa",
		"pqtls/internal/tls13.(*Client).Consume":         "tls13",
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/maps.(*Map).Get":               "runtime",
		"crypto/sha256.block":                            "other",
		"main.main":                                      "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestPaperCells(t *testing.T) {
	cells := paperCells()
	if len(cells) != 23+23+23*6 {
		t.Fatalf("%d cells, want 184", len(cells))
	}
	groups := map[string]int{}
	for _, c := range cells {
		groups[c.group]++
	}
	for _, d := range harnessLayer {
		g := d.name[len("harness.cell_ms."):]
		if groups[g] == 0 {
			t.Errorf("no cell in group %s", g)
		}
		delete(groups, g)
	}
	if len(groups) != 0 {
		t.Errorf("cells in unreported groups: %v", groups)
	}
}

// A pass fans each cell's samples out over RunCampaign's worker pool; its
// rows must not depend on the worker count. Run under -race it also checks
// the pass for data races.
func TestGridPassWorkersAgree(t *testing.T) {
	var cells []gridCell
	for _, c := range paperCells() {
		if (c.table == "2b" && (c.sig == "dilithium2" || c.sig == "falcon512")) ||
			(c.table == "4a" && c.kem == "x25519" && c.link.Name != "none") {
			cells = append(cells, c)
		}
	}
	if len(cells) != 7 {
		t.Fatalf("picked %d cells, want 7", len(cells))
	}
	one := runPass(cells, defaultSeed, 1)
	two := runPass(cells, defaultSeed, 2)
	if one.failed+two.failed > 0 {
		t.Fatalf("cells failed: %v %v", one.errs, two.errs)
	}
	if one.digest() != two.digest() {
		t.Errorf("rows differ between 1 and 2 workers")
	}
	for i, v := range two.cellMS {
		if v <= 0 {
			t.Errorf("cell %d has wall time %v ms", i, v)
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	want := []string{fullPQ.name, resumePQ.name, gridName}
	if len(b.Workloads) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %v", len(b.Workloads), want)
	}
	for i, w := range want {
		if b.Workloads[i].Name != w {
			t.Errorf("workload %d = %s, want %s", i, b.Workloads[i].Name, w)
		}
	}
}

// nestingHooks records which server phases open inside which, with one
// connection at a time so a single stack is exact.
type nestingHooks struct {
	mu     sync.Mutex
	st     phaseStack
	parent map[string]map[string]bool // phase -> enclosing phases ("" = none)
}

func (h *nestingHooks) Phase(name string) func() {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := ""
	if n := len(h.st.open); n > 0 {
		p = h.st.open[n-1].name
	}
	if h.parent[name] == nil {
		h.parent[name] = map[string]bool{}
	}
	h.parent[name][p] = true
	f := h.st.push(name, time.Now())
	return func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.st.pop(f, time.Now())
	}
}

func (h *nestingHooks) Span(string) func()    { return nop }
func (h *nestingHooks) Charge(string, string) {}

// serverTopLevel must list exactly the server phases no other phase
// encloses, record protection aside, or serverBusy would count time twice
// or miss it.
func TestServerPhaseNesting(t *testing.T) {
	creds, err := harness.CredentialsFor(fullPQ.sig, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := &nestingHooks{parent: map[string]map[string]bool{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := live.Serve(ln, live.Options{
		Config: &tls13.Config{
			KEMName: fullPQ.kem, SigName: fullPQ.sig, ServerName: serverName,
			Chain: creds.Chain, PrivateKey: creds.Priv, Buffer: tls13.BufferImmediate, Hooks: h,
		},
		HandshakeTimeout: hsTimeout, IssueTickets: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(time.Second)
	e := &liveEnv{spec: fullPQ, srv: srv, addr: srv.Addr().String(), cliAgg: newPhaseAgg(),
		cliCfg: tls13.Config{KEMName: fullPQ.kem, SigName: fullPQ.sig, ServerName: serverName, Roots: creds.Roots}}
	_, sess, err := e.handshake(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.spec = resumePQ
	if _, _, err := e.handshake(sess, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	record := map[string]bool{tls13.PhaseRecordRead: true, tls13.PhaseRecordWrite: true}
	top := map[string]bool{}
	for phase, parents := range h.parent {
		for p := range parents {
			switch {
			case p == "" && !record[phase]:
				top[phase] = true
			case p != "" && !record[phase]:
				t.Errorf("phase %s opens inside %s", phase, p)
			case p != "" && record[p]:
				t.Errorf("record phase %s opens inside record phase %s", phase, p)
			}
		}
	}
	for _, p := range serverTopLevel {
		if !top[p] {
			t.Errorf("serverTopLevel lists %s, which no full or resumed handshake opened at top level", p)
		}
		delete(top, p)
	}
	for p := range top {
		t.Errorf("top-level server phase %s is missing from serverTopLevel", p)
	}
}
