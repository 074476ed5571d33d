package loadgen

import (
	"net"
	"testing"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/tls13"
)

// startPQLive boots a live server for the paper's kyber768/dilithium3 suite
// with the signing worker pool enabled.
func startPQLive(t *testing.T, signWorkers int) (*live.Server, *tls13.Config) {
	t.Helper()
	creds, err := harness.CredentialsFor("dilithium3", 1)
	if err != nil {
		t.Fatalf("credentials: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv, err := live.Serve(ln, live.Options{
		Config: &tls13.Config{
			KEMName: "kyber768", SigName: "dilithium3", ServerName: "server.example",
			Chain: creds.Chain, PrivateKey: creds.Priv, Buffer: tls13.BufferImmediate,
		},
		IssueTickets: true,
		SignWorkers:  signWorkers,
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	return srv, &tls13.Config{
		KEMName: "kyber768", SigName: "dilithium3", ServerName: "server.example", Roots: creds.Roots,
	}
}

// TestE2EPrecomputedFullHandshakes is the end-to-end contract of the whole
// precompute subsystem over real sockets: a kyber768/dilithium3 server
// signing through a worker pool, a client fleet drawing key shares from a
// factory-backed pool and amortizing chain/verifier setup, full handshakes
// only. Every handshake must succeed, every CertificateVerify must have
// gone through the sign pool, and the key-share factory must actually have
// fed the clients.
func TestE2EPrecomputedFullHandshakes(t *testing.T) {
	srv, cfg := startPQLive(t, 2)
	pool := harness.NewKeyPool()
	err := pool.StartFactory(harness.FactoryOptions{
		Suites: []string{"kyber768"}, Target: 24, LowWater: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.StopFactory()

	sched := NewSchedule(7, DistUniform, 100, 400*time.Millisecond)
	res, err := Run(Options{
		Addr: srv.Addr().String(), Config: cfg, Schedule: sched,
		KeyShares: pool, Amortize: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if res.Failed != 0 {
		t.Fatalf("failures on loopback: %v", res.Errors)
	}
	if res.Completed != res.Started {
		t.Errorf("completed %d of %d", res.Completed, res.Started)
	}
	// Every full handshake's CertificateVerify went through the pool, and
	// the pool produced nothing else.
	sp := srv.SignPoolStats()
	if sp.Signs != res.Completed || sp.Errors != 0 {
		t.Errorf("sign pool stats %+v, want %d signs and no errors", sp, res.Completed)
	}
	// The factory fed the fleet: with a 24-deep pool and batch refills, most
	// (often all) handshakes hit pooled key shares.
	if st := pool.FactoryStats(); st.Hits == 0 {
		t.Errorf("no loadgen handshake drew from the key-share factory: %+v", st)
	}
	// The schedule the run executed is reproducible: an identically
	// parameterized schedule digests to the same plan (what live-smoke
	// asserts across separate processes).
	if got, want := sched.Digest(), NewSchedule(7, DistUniform, 100, 400*time.Millisecond).Digest(); got != want {
		t.Errorf("schedule digest not reproducible: %s vs %s", got, want)
	}
}

// TestE2EPrecomputedResumption checks the subsystem against the resumption
// path: with tickets enabled, the priming handshake is the only one that
// needs a signature, and every scheduled handshake resumes.
func TestE2EPrecomputedResumption(t *testing.T) {
	srv, cfg := startPQLive(t, 2)
	pool := harness.NewKeyPool()
	err := pool.StartFactory(harness.FactoryOptions{
		Suites: []string{"kyber768"}, Target: 16, LowWater: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.StopFactory()

	sched := NewSchedule(11, DistExponential, 100, 300*time.Millisecond)
	res, err := Run(Options{
		Addr: srv.Addr().String(), Config: cfg, Schedule: sched,
		Resume: true, KeyShares: pool, Amortize: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res.Failed != 0 {
		t.Fatalf("failures on loopback: %v", res.Errors)
	}
	if res.Resumed != res.Completed {
		t.Errorf("resumed %d of %d completions, want all", res.Resumed, res.Completed)
	}
	// Only the priming full handshake required a CertificateVerify.
	if sp := srv.SignPoolStats(); sp.Signs != 1 || sp.Errors != 0 {
		t.Errorf("sign pool stats %+v, want exactly the priming signature", sp)
	}
}

// TestE2EDrainMidRefill interleaves the shutdown paths: the key-share
// factory is stopped while the load run is still in flight (consumers
// degrade to inline keygen, never fail) and the server then drains with the
// sign pool closing behind the last connection. Nothing may error, hang, or
// lose a handshake; run under -race by `make race`.
func TestE2EDrainMidRefill(t *testing.T) {
	srv, cfg := startPQLive(t, 2)
	pool := harness.NewKeyPool()
	err := pool.StartFactory(harness.FactoryOptions{
		Suites: []string{"kyber768"}, Target: 8, LowWater: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	stopped := make(chan error, 1)
	go func() {
		// Land the StopFactory mid-run: consumers are taking and the
		// factory is refilling when the stop arrives.
		time.Sleep(50 * time.Millisecond)
		stopped <- pool.StopFactory()
	}()

	sched := NewSchedule(3, DistUniform, 120, 300*time.Millisecond)
	res, err := Run(Options{
		Addr: srv.Addr().String(), Config: cfg, Schedule: sched,
		KeyShares: pool, Amortize: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := <-stopped; err != nil {
		t.Fatalf("mid-run StopFactory: %v", err)
	}
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res.Failed != 0 {
		t.Fatalf("failures with factory stopped mid-run: %v", res.Errors)
	}
	if res.Completed != res.Started {
		t.Errorf("completed %d of %d", res.Completed, res.Started)
	}
	if sp := srv.SignPoolStats(); sp.Signs != res.Completed {
		t.Errorf("sign pool signed %d, want %d", sp.Signs, res.Completed)
	}
}
