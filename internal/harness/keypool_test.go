package harness

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"pqtls/internal/tls13"
)

// TestFactoryPrimesAndRefills checks the watermark machinery: StartFactory
// primes every suite to the target, Get drains below the low watermark and
// the factory refills back to target, and StopFactory leaves the pooled
// keys available.
func TestFactoryPrimesAndRefills(t *testing.T) {
	pool := NewKeyPool()
	err := pool.StartFactory(FactoryOptions{
		Suites: []string{"kyber768", "x25519"}, Target: 12, LowWater: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, suite := range []string{"kyber768", "x25519"} {
		if n := pool.Len(suite); n != 12 {
			t.Fatalf("%s primed to %d, want 12", suite, n)
		}
	}
	// Drain below the low watermark and wait for the refill.
	for i := 0; i < 8; i++ {
		if pool.Get("kyber768") == nil {
			t.Fatalf("Get %d returned nil with a warm pool", i)
		}
	}
	deadline := 0
	for pool.Len("kyber768") < 12 {
		if deadline++; deadline > 4000 {
			t.Fatalf("factory never refilled: %d of 12", pool.Len("kyber768"))
		}
		// The factory runs on its own goroutine; yield until it catches up.
		time.Sleep(time.Millisecond)
	}
	st := pool.FactoryStats()
	if st.Generated < 24+8 || st.Batches == 0 || st.Hits != 8 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if err := pool.StopFactory(); err != nil {
		t.Fatal(err)
	}
	if pool.Len("kyber768") == 0 {
		t.Fatal("StopFactory discarded pooled keys")
	}
	// Second start/stop cycle must work.
	if err := pool.StartFactory(FactoryOptions{Suites: []string{"kyber768"}}); err != nil {
		t.Fatal(err)
	}
	if err := pool.StopFactory(); err != nil {
		t.Fatal(err)
	}
	if err := pool.StopFactory(); err != nil {
		t.Fatal(err) // stopping a stopped factory is a no-op
	}
}

func TestFactoryRejectsUnknownSuiteAndDoubleStart(t *testing.T) {
	pool := NewKeyPool()
	if err := pool.StartFactory(FactoryOptions{Suites: []string{"no-such-kem"}}); err == nil {
		t.Fatal("unknown suite accepted")
	}
	if err := pool.StartFactory(FactoryOptions{Suites: []string{"x25519"}, Target: 2}); err != nil {
		t.Fatal(err)
	}
	defer pool.StopFactory()
	if err := pool.StartFactory(FactoryOptions{Suites: []string{"x25519"}}); err == nil {
		t.Fatal("double StartFactory accepted")
	}
}

// TestFactoryConcurrentTakeRefillShutdown hammers the pool from many
// consumers while the factory refills underneath and a shutdown lands in
// the middle; run under -race by `make race`. Every handed-out key pair
// must be unique — a pooled keypair reaching two connections would let one
// connection decapsulate the other's traffic secret.
func TestFactoryConcurrentTakeRefillShutdown(t *testing.T) {
	pool := NewKeyPool()
	err := pool.StartFactory(FactoryOptions{
		Suites: []string{"kyber512", "x25519"}, Target: 16, LowWater: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	const takes = 60
	taken := make([][][]byte, goroutines)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			suite := []string{"kyber512", "x25519"}[g%2]
			for i := 0; i < takes; i++ {
				if ks := pool.Get(suite); ks != nil {
					taken[g] = append(taken[g], ks.Pub)
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(g)
	}
	// Shut down mid-take: consumers keep calling Get against a stopping and
	// then stopped factory, which must degrade to nil returns, never block
	// or race.
	time.Sleep(2 * time.Millisecond)
	if err := pool.StopFactory(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	seen := make(map[string]int)
	for g := range taken {
		for _, pub := range taken[g] {
			seen[string(pub)]++
		}
	}
	for _, count := range seen {
		if count > 1 {
			t.Fatalf("double-take: one pooled keypair handed to %d consumers", count)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no keys were ever served; stress test exercised nothing")
	}
}

// TestCampaignDeterministicAcrossWorkersWithFactory is the campaign
// determinism guard for the precompute subsystem: with the key-share
// factory running (including falcon512 rows, whose variable-length
// signatures would expose any DRBG stream shift), the workers=1 and
// workers=8 CSVs must stay byte-identical. This pins RunHandshake's
// modeled-mode bypass — pooled keys must never leak into DRBG-pinned
// samples, where worker scheduling would decide which sample drew from
// the pool.
func TestCampaignDeterministicAcrossWorkersWithFactory(t *testing.T) {
	t.Parallel()
	pool := NewKeyPool()
	err := pool.StartFactory(FactoryOptions{
		Suites: []string{"x25519", "kyber512", "hqc128", "p256_kyber512"},
		Target: 8, LowWater: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.StopFactory()

	csv := func(workers int) []byte {
		specs := determinismGrid(workers)
		for i := range specs {
			specs[i].KeyPool = pool
		}
		results, err := runCampaignGrid(specs, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteLatenciesCSV(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sequential := csv(1)
	parallel := csv(8)
	if !bytes.Equal(sequential, parallel) {
		t.Errorf("factory-enabled campaign differs across workers:\n--- workers=1\n%s--- workers=8\n%s",
			sequential, parallel)
	}
	// And the factory must not have fed a single pinned sample: every
	// campaign handshake generates inline under the bypass.
	if st := pool.FactoryStats(); st.Hits != 0 {
		t.Errorf("modeled campaign consumed %d pooled keys; bypass failed", st.Hits)
	}
	// An unpinned run with the same pool does draw from it.
	if _, err := RunHandshake(RunOptions{
		KEM: "kyber512", Sig: "dilithium2", Link: ScenarioTestbed,
		Buffer: tls13.BufferImmediate, Seed: 3, KeyPool: pool,
	}); err != nil {
		t.Fatal(err)
	}
	if st := pool.FactoryStats(); st.Hits != 1 {
		t.Errorf("unpinned run did not use the pool (hits=%d)", st.Hits)
	}
}
