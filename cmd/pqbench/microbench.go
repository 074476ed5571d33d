package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"pqtls"
	"pqtls/internal/crypto/gf2x"
	"pqtls/internal/crypto/mldsa"
	"pqtls/internal/crypto/mlkem"
	"pqtls/internal/crypto/sha3"
	"pqtls/internal/crypto/sphincs"
	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/loadgen"
	"pqtls/internal/obs"
	"pqtls/internal/tls13"
)

// benchSchema versions the BENCH_*.json layout so the gate can refuse to
// compare incompatible files.
const benchSchema = "pqbench-microbench/v1"

// benchResult is one kernel measurement in BENCH_*.json.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// liveResult is the end-to-end loopback measurement in BENCH_*.json. It is
// informational (wall-clock, host-dependent): the regression gate never
// fails on it.
type liveResult struct {
	HandshakesPerSec float64 `json:"handshakes_per_sec"`
	P50Ms            float64 `json:"p50_ms"`
	P95Ms            float64 `json:"p95_ms"`
	Completed        int     `json:"completed"`
	Failed           int     `json:"failed"`
}

// benchFile is the full BENCH_*.json document.
type benchFile struct {
	Schema     string                 `json:"schema"`
	Go         string                 `json:"go"`
	Short      bool                   `json:"short"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
	Live       map[string]liveResult  `json:"live,omitempty"`
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// kernelBenchmarks is the microbenchmark inventory: the kernels the
// paper's white-box profile (Table 3) identifies as handshake-dominant,
// plus one sans-IO handshake per headline suite. The same inventory backs
// the `go test -bench` benchmarks in kernels_bench_test.go.
func kernelBenchmarks() []namedBench {
	var out []namedBench
	add := func(name string, fn func(b *testing.B)) {
		out = append(out, namedBench{name: name, fn: fn})
	}

	add("sha3/sum256-block", func(b *testing.B) {
		buf := make([]byte, 136)
		for i := 0; i < b.N; i++ {
			_ = sha3.Sum256(buf)
		}
	})
	add("sha3/shake256into-64", func(b *testing.B) {
		in := make([]byte, 64)
		dst := make([]byte, 64)
		for i := 0; i < b.N; i++ {
			sha3.ShakeSum256Into(dst, in)
		}
	})

	kem := func(p *mlkem.Params) {
		drbg := benchStream("microbench/" + p.Name)
		add(p.Name+"/keygen", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := p.GenerateKey(drbg); err != nil {
					b.Fatal(err)
				}
			}
		})
		pk, sk, err := p.GenerateKey(drbg)
		if err != nil {
			panic(err)
		}
		add(p.Name+"/encap", func(b *testing.B) {
			// The allocation-free path the zero-alloc handshake rides; gated
			// at exactly 0 allocs/op.
			ct := make([]byte, p.CiphertextSize())
			ss := make([]byte, p.SharedSecretSize())
			for i := 0; i < b.N; i++ {
				if err := p.EncapsulateInto(drbg, pk, ct, ss); err != nil {
					b.Fatal(err)
				}
			}
		})
		ct, _, err := p.Encapsulate(drbg, pk)
		if err != nil {
			panic(err)
		}
		add(p.Name+"/decap", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Decapsulate(sk, ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	kem(mlkem.Kyber512)
	kem(mlkem.Kyber768)

	msg := []byte("the performance of post-quantum tls 1.3")
	{
		p := mldsa.Dilithium3
		drbg := benchStream("microbench/dilithium3")
		pk, sk, err := p.GenerateKey(drbg)
		if err != nil {
			panic(err)
		}
		sig, err := p.Sign(sk, msg)
		if err != nil {
			panic(err)
		}
		add("dilithium3/sign", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Sign(sk, msg); err != nil {
					b.Fatal(err)
				}
			}
		})
		add("dilithium3/verify", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !p.Verify(pk, msg, sig) {
					b.Fatal("verify failed")
				}
			}
		})
		signKey, err := p.NewSigningKey(sk)
		if err != nil {
			panic(err)
		}
		verifyKey, err := p.NewVerifyKey(pk)
		if err != nil {
			panic(err)
		}
		add("dilithium3/sign-cached", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := signKey.Sign(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
		add("dilithium3/verify-cached", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !verifyKey.Verify(msg, sig) {
					b.Fatal("verify failed")
				}
			}
		})
	}
	{
		p := sphincs.SPHINCS128f
		drbg := benchStream("microbench/sphincs128f")
		pk, sk, err := p.GenerateKey(drbg)
		if err != nil {
			panic(err)
		}
		sig, err := p.Sign(sk, msg)
		if err != nil {
			panic(err)
		}
		add("sphincs128f/sign", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Sign(sk, msg); err != nil {
					b.Fatal(err)
				}
			}
		})
		add("sphincs128f/verify", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !p.Verify(pk, msg, sig) {
					b.Fatal("verify failed")
				}
			}
		})
	}
	{
		// HQC-128 shapes: r = 17669, dense * weight-75 sparse.
		const r, w = 17669, 75
		drbg := benchStream("microbench/gf2x")
		dense, err := gf2x.Random(drbg, r)
		if err != nil {
			panic(err)
		}
		sup, err := gf2x.RandomSupport(drbg, r, w)
		if err != nil {
			panic(err)
		}
		q := gf2x.New(r)
		for _, pos := range sup {
			q.SetBit(pos)
		}
		dst := gf2x.New(r)
		add("gf2x/mulsparse-hqc128", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dense.MulSparse(dst, sup)
			}
		})
		add("gf2x/muldense-hqc128", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dense.Mul(dst, q)
			}
		})
	}

	{
		// Sign-pool round trip: Submit + Wait through a 2-worker pool over
		// the cached dilithium3 signing context — the latency a connection
		// goroutine observes for its CertificateVerify on an idle server
		// (queueing excluded). The workers outlive the bench; a binary-
		// lifetime pool is what the live runtime runs too.
		p := mldsa.Dilithium3
		drbg := benchStream("microbench/signpool")
		_, sk, err := p.GenerateKey(drbg)
		if err != nil {
			panic(err)
		}
		signKey, err := p.NewSigningKey(sk)
		if err != nil {
			panic(err)
		}
		pool := live.NewSignPool(signKey, 2, 8)
		add("live/signpool-sign", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pool.Sign(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	{
		// TLS 1.3 key-schedule kernel: one full server-side HKDF derivation
		// chain (early → handshake → master, both traffic secret pairs,
		// finished MACs) through the scratch-buffer key schedule. Gated at
		// zero allocs — this runs once per handshake on the accept path.
		ks := tls13.NewKeyScheduleKernel()
		ss := make([]byte, 32)
		transcript := make([]byte, 512)
		benchStream("microbench/keyschedule").Read(ss)
		benchStream("microbench/keyschedule-transcript").Read(transcript)
		var sink byte
		add("tls13/keyschedule", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink ^= ks.Run(ss, transcript)
			}
			_ = sink
		})
	}
	{
		// Session-ticket seal + open round trip on the key-sharded store —
		// the per-resumption cost of ticket issuance and redemption with the
		// atomic counters and cached AEAD on the hot path.
		ts := tls13.NewTicketStore([16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
		psk := make([]byte, 32)
		benchStream("microbench/ticket").Read(psk)
		add("tls13/ticket-seal-open", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tkt, err := ts.Seal(psk, "kyber768")
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := ts.Open(tkt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	{
		// Windowed-telemetry kernels. window-record is the loadgen hot path
		// with -window set — counter adds plus one histogram bucket increment
		// under the timeline mutex, into windows that already exist. Gated at
		// zero allocs: window creation happens once per interval, never per
		// handshake. window-merge is the coordinator's per-progress-frame
		// fold of a worker snapshot (allocates clones by design; ns/op only).
		add("obs/window-record", func(b *testing.B) {
			tl := obs.NewTimeline(100 * time.Millisecond)
			for i := 0; i < 64; i++ {
				tl.RecordStart(time.Duration(i) * 100 * time.Millisecond)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := time.Duration(i%64) * 100 * time.Millisecond
				tl.RecordComplete(at, time.Millisecond, i%4 == 0, false)
			}
		})
		add("obs/window-merge", func(b *testing.B) {
			src := obs.NewTimeline(100 * time.Millisecond)
			for i := 0; i < 32; i++ {
				at := time.Duration(i) * 100 * time.Millisecond
				src.RecordStart(at)
				src.RecordComplete(at+time.Millisecond, time.Duration(i+1)*time.Millisecond, i%2 == 0, false)
			}
			dst := obs.NewTimeline(100 * time.Millisecond)
			if err := dst.Merge(src); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dst.Merge(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	add("handshake/kyber768-dilithium3", handshakeBench("kyber768", "dilithium3"))
	add("handshake/x25519-ed25519", handshakeBench("x25519", "ed25519"))
	return out
}

// benchStream is the deterministic input stream for reproducible kernels.
func benchStream(label string) sha3.XOF {
	x := sha3.NewShake128()
	x.Write([]byte("pqtls-kernel-bench/" + label))
	return x
}

// handshakeBench runs one full sans-IO handshake per iteration (compute
// only, no simulated network).
func handshakeBench(kemName, sigName string) func(b *testing.B) {
	return func(b *testing.B) {
		creds, err := harness.CredentialsFor(sigName, 1)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			srv, err := pqtls.NewServer(&pqtls.Config{
				KEMName: kemName, SigName: sigName, ServerName: "server.example",
				Chain: creds.Chain, PrivateKey: creds.Priv,
			})
			if err != nil {
				b.Fatal(err)
			}
			cli, err := pqtls.NewClient(&pqtls.Config{
				KEMName: kemName, SigName: sigName, ServerName: "server.example",
				Roots: creds.Roots,
			})
			if err != nil {
				b.Fatal(err)
			}
			ch, err := cli.Start()
			if err != nil {
				b.Fatal(err)
			}
			flushes, err := srv.Respond(ch)
			if err != nil {
				b.Fatal(err)
			}
			var final []pqtls.Record
			for _, f := range flushes {
				out, done, err := cli.Consume(f.Records)
				if err != nil {
					b.Fatal(err)
				}
				if done {
					final = out
				}
			}
			if err := srv.Finish(final); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// runMicrobench is the `pqbench microbench` subcommand: it runs the kernel
// inventory through testing.Benchmark, optionally measures live loopback
// handshake throughput, and writes the machine-readable BENCH_*.json the
// regression gate (scripts/bench_gate.sh) consumes.
func runMicrobench(args []string) error {
	fs := flag.NewFlagSet("microbench", flag.ExitOnError)
	out := fs.String("out", "", "write JSON here (default stdout)")
	short := fs.Bool("short", false, "fast pass: 100ms per kernel, no live run (allocs/op still exact)")
	withLive := fs.Bool("live", true, "measure live loopback handshakes/sec for the headline suite")
	rate := fs.Float64("rate", 200, "live offered load (handshakes/second)")
	poolRate := fs.Float64("pool-rate", 900, "offered load for the precompute-enabled live probe (just past this host's pooled knee; deep overload only measures queue drain)")
	duration := fs.Duration("duration", 4*time.Second, "live schedule span")
	fs.Parse(args)

	// testing.Benchmark obeys the test.benchtime flag; register the testing
	// flags and set it explicitly so a plain binary run is deterministic in
	// duration. allocs/op is exact at any benchtime.
	testing.Init()
	benchtime := "1s"
	if *short {
		benchtime = "0.1s"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return err
	}
	flag.Parse()

	doc := benchFile{
		Schema:     benchSchema,
		Go:         runtime.Version(),
		Short:      *short,
		Benchmarks: map[string]benchResult{},
	}

	// The live probes run before the kernel sweep: tens of seconds of
	// saturated benchmarking can trip host-level CPU throttling (thermal or
	// cgroup quota), which would bias a trailing wall-clock throughput
	// measurement. Kernel benches self-calibrate per kernel and gate on
	// allocs in CI, so ordering does not affect them the same way.
	if *withLive && !*short {
		lr, err := liveThroughput("kyber768", "dilithium3", *rate, *duration, false)
		if err != nil {
			return fmt.Errorf("live measurement: %w", err)
		}
		// The pooled probe runs the whole precompute subsystem — key-share
		// factory, amortized client caches, 2-worker sign pool — at a higher
		// offered load, since the point of the subsystem is to lift the
		// server's ceiling, not its behaviour at the baseline rate.
		pr, err := liveThroughput("kyber768", "dilithium3", *poolRate, *duration, true)
		if err != nil {
			return fmt.Errorf("live measurement (pool): %w", err)
		}
		doc.Live = map[string]liveResult{
			"kyber768+dilithium3":      *lr,
			"kyber768+dilithium3+pool": *pr,
		}
		fmt.Fprintf(os.Stderr, "%-32s %12.1f handshakes/s (p50 %.2fms, p95 %.2fms)\n",
			"live/kyber768-dilithium3", lr.HandshakesPerSec, lr.P50Ms, lr.P95Ms)
		fmt.Fprintf(os.Stderr, "%-32s %12.1f handshakes/s (p50 %.2fms, p95 %.2fms)\n",
			"live/kyber768-dilithium3+pool", pr.HandshakesPerSec, pr.P50Ms, pr.P95Ms)
	}

	for _, nb := range kernelBenchmarks() {
		r := testing.Benchmark(nb.fn)
		doc.Benchmarks[nb.name] = benchResult{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		fmt.Fprintf(os.Stderr, "%-32s %12.0f ns/op %8d B/op %6d allocs/op\n",
			nb.name, doc.Benchmarks[nb.name].NsPerOp, r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// liveThroughput measures real loopback handshakes/sec with the
// internal/live server runtime and internal/loadgen's open-loop schedule —
// the same plumbing as `pqbench live`, reduced to the numbers the bench
// file records. The pooled probe runs the sharded accept path (one shard
// per core) with the schedule split across as many dispatchers, the same
// configuration `pqbench saturate` sweeps.
func liveThroughput(kemName, sigName string, rate float64, duration time.Duration, pooled bool) (*liveResult, error) {
	creds, err := harness.CredentialsFor(sigName, 1)
	if err != nil {
		return nil, err
	}
	srvCfg := &tls13.Config{
		KEMName: kemName, SigName: sigName, ServerName: "server.example",
		Chain: creds.Chain, PrivateKey: creds.Priv, Buffer: tls13.BufferImmediate,
	}
	srvOpts := live.Options{
		Config:           srvCfg,
		MaxConns:         128,
		HandshakeTimeout: 10 * time.Second,
	}
	workers := 1
	var addr string
	var shutdown func(time.Duration) error
	if pooled {
		srvOpts.SignWorkers = 2
		srvOpts.MaxConns = 256
		workers = runtime.GOMAXPROCS(0)
		ss, err := live.ServeSharded("127.0.0.1:0", srvOpts, workers)
		if err != nil {
			return nil, err
		}
		addr = ss.Addr().String()
		shutdown = ss.Shutdown
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv, err := live.Serve(ln, srvOpts)
		if err != nil {
			return nil, err
		}
		addr = srv.Addr().String()
		shutdown = srv.Shutdown
	}
	warmup := duration / 10
	sched := loadgen.NewSchedule(1, loadgen.DistExponential, rate, duration)
	runOpts := loadgen.Options{
		Addr:             addr,
		Config:           &tls13.Config{KEMName: kemName, SigName: sigName, ServerName: "server.example", Roots: creds.Roots},
		Schedule:         sched,
		Warmup:           warmup,
		MaxConcurrent:    srvOpts.MaxConns,
		HandshakeTimeout: 10 * time.Second,
	}
	if pooled {
		keyPool := harness.NewKeyPool()
		err := keyPool.StartFactory(harness.FactoryOptions{
			Suites: []string{kemName}, Target: 128, LowWater: 32,
		})
		if err != nil {
			shutdown(time.Second)
			return nil, err
		}
		defer keyPool.StopFactory()
		runOpts.KeyShares = keyPool
		runOpts.Amortize = true
		// Discarded warm-up pass against the same server before the clock
		// matters: fills the key-share factory, sizes the GC heap, and warms
		// the shard runtimes — the steady state a saturate ladder reaches on
		// its earlier rungs. Without it the probe measures cold-start.
		warmOpts := runOpts
		warmOpts.Schedule = loadgen.NewSchedule(2, loadgen.DistExponential, rate/3, time.Second)
		warmOpts.Warmup = 0
		if _, err := loadgen.RunWorkers(warmOpts, workers); err != nil {
			shutdown(time.Second)
			return nil, err
		}
	}
	res, err := loadgen.RunWorkers(runOpts, workers)
	if err != nil {
		shutdown(time.Second)
		return nil, err
	}
	if err := shutdown(5 * time.Second); err != nil {
		return nil, err
	}
	return &liveResult{
		HandshakesPerSec: res.Rate(warmup),
		P50Ms:            float64(res.Hist.Quantile(0.50)) / float64(time.Millisecond),
		P95Ms:            float64(res.Hist.Quantile(0.95)) / float64(time.Millisecond),
		Completed:        int(res.Completed),
		Failed:           int(res.Failed),
	}, nil
}

// runBenchGate is the `pqbench benchgate` subcommand: a dependency-free
// comparison of two BENCH_*.json files. It fails when a kernel regresses
// by more than -max-regress in ns/op (unless -allocs-only, for noisy CI
// hosts) or when allocs/op grow at all, and when a previously measured
// kernel disappears. Live throughput is reported but never gated.
func runBenchGate(args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ExitOnError)
	oldPath := fs.String("old", "", "baseline BENCH_*.json")
	newPath := fs.String("new", "", "candidate BENCH_*.json")
	maxRegress := fs.Float64("max-regress", 0.10, "allowed fractional ns/op regression")
	allocsOnly := fs.Bool("allocs-only", false, "gate only allocs/op (for hosts with noisy timing)")
	fs.Parse(args)
	if *oldPath == "" || *newPath == "" {
		return fmt.Errorf("benchgate: -old and -new are required")
	}
	oldDoc, err := readBenchFile(*oldPath)
	if err != nil {
		return err
	}
	newDoc, err := readBenchFile(*newPath)
	if err != nil {
		return err
	}

	names := make([]string, 0, len(oldDoc.Benchmarks))
	for name := range oldDoc.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failures := 0
	for _, name := range names {
		old := oldDoc.Benchmarks[name]
		cur, ok := newDoc.Benchmarks[name]
		if !ok {
			fmt.Printf("FAIL %-32s missing from %s\n", name, *newPath)
			failures++
			continue
		}
		delta := 0.0
		if old.NsPerOp > 0 {
			delta = cur.NsPerOp/old.NsPerOp - 1
		}
		// Zero-alloc kernels must stay at exactly zero; the rest get 5%+1
		// headroom because AllocsPerOp is a per-iteration average and
		// sync.Pool reuse under GC pressure jitters it slightly.
		allocLimit := old.AllocsPerOp + old.AllocsPerOp/20 + 1
		if old.AllocsPerOp == 0 {
			allocLimit = 0
		}
		switch {
		case cur.AllocsPerOp > allocLimit:
			fmt.Printf("FAIL %-32s allocs/op %d -> %d\n", name, old.AllocsPerOp, cur.AllocsPerOp)
			failures++
		case !*allocsOnly && delta > *maxRegress:
			fmt.Printf("FAIL %-32s %+.1f%% ns/op (%.0f -> %.0f, limit %+.0f%%)\n",
				name, delta*100, old.NsPerOp, cur.NsPerOp, *maxRegress*100)
			failures++
		default:
			fmt.Printf("ok   %-32s %+.1f%% ns/op, allocs %d -> %d\n",
				name, delta*100, old.AllocsPerOp, cur.AllocsPerOp)
		}
	}
	for suite, old := range oldDoc.Live {
		if cur, ok := newDoc.Live[suite]; ok && old.HandshakesPerSec > 0 {
			fmt.Printf("info live/%s %+.1f%% handshakes/s (not gated)\n",
				suite, (cur.HandshakesPerSec/old.HandshakesPerSec-1)*100)
		}
	}
	if failures > 0 {
		return fmt.Errorf("benchgate: %d regression(s) vs %s", failures, *oldPath)
	}
	fmt.Printf("benchgate: %d kernels within limits vs %s\n", len(names), *oldPath)
	return nil
}

func readBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != benchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, benchSchema)
	}
	return &doc, nil
}
