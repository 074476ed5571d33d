// Kernel-level benchmarks for the hot crypto paths the paper's white-box
// profile (Table 3) identifies as handshake-dominant: Keccak hashing, NTT
// polynomial arithmetic, GF(2)[x] multiplication, and full scheme
// operations built on them. `pqbench microbench` runs the same kernels
// programmatically and emits BENCH_*.json; these benchmarks are the
// `go test -bench` face of the same inventory (see DESIGN.md,
// "Performance engineering").
package pqtls_test

import (
	"io"
	"testing"
	"time"

	"pqtls"
	"pqtls/internal/crypto/gf2x"
	"pqtls/internal/crypto/mldsa"
	"pqtls/internal/crypto/mlkem"
	"pqtls/internal/crypto/sha3"
	"pqtls/internal/crypto/sphincs"
	"pqtls/internal/harness"
	"pqtls/internal/obs"
	"pqtls/internal/tls13"
)

// benchDRBG returns a deterministic byte stream so benchmark iterations are
// reproducible across runs and machines.
func benchDRBG(label string) io.Reader {
	x := sha3.NewShake128()
	x.Write([]byte("pqtls-kernel-bench/" + label))
	return x
}

func BenchmarkSHA3Sum256(b *testing.B) {
	buf := make([]byte, 136) // one SHA3-256 rate block
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		_ = sha3.Sum256(buf)
	}
}

func BenchmarkShakeSum256(b *testing.B) {
	in := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sha3.ShakeSum256(64, in)
	}
}

func BenchmarkKyber768(b *testing.B) {
	p := mlkem.Kyber768
	drbg := benchDRBG("kyber768")
	pk, sk, err := p.GenerateKey(drbg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("keygen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.GenerateKey(drbg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.Encapsulate(drbg, pk); err != nil {
				b.Fatal(err)
			}
		}
	})
	ct, _, err := p.Encapsulate(drbg, pk)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Decapsulate(sk, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDilithium3(b *testing.B) {
	p := mldsa.Dilithium3
	drbg := benchDRBG("dilithium3")
	pk, sk, err := p.GenerateKey(drbg)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("the performance of post-quantum tls 1.3")
	b.Run("sign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Sign(sk, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	sigBytes, err := p.Sign(sk, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !p.Verify(pk, msg, sigBytes) {
				b.Fatal("verify failed")
			}
		}
	})
}

func BenchmarkSphincs128Sign(b *testing.B) {
	p := sphincs.SPHINCS128f
	drbg := benchDRBG("sphincs128")
	pk, sk, err := p.GenerateKey(drbg)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("the performance of post-quantum tls 1.3")
	b.Run("sign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Sign(sk, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	sigBytes, err := p.Sign(sk, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !p.Verify(pk, msg, sigBytes) {
				b.Fatal("verify failed")
			}
		}
	})
}

func BenchmarkGF2xMulSparse(b *testing.B) {
	// HQC-128 shapes: r = 17669 bits, weight-75 sparse operand.
	const r, w = 17669, 75
	drbg := benchDRBG("gf2x")
	dense, err := gf2x.Random(drbg, r)
	if err != nil {
		b.Fatal(err)
	}
	sup, err := gf2x.RandomSupport(drbg, r, w)
	if err != nil {
		b.Fatal(err)
	}
	dst := gf2x.New(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dense.MulSparse(dst, sup)
	}
}

// BenchmarkHandshakeKyber768Dilithium3 is the headline end-to-end compute
// benchmark: one full sans-IO handshake (no simulated network) for the
// paper's recommended PQ suite.
func BenchmarkHandshakeKyber768Dilithium3(b *testing.B) {
	benchHandshake(b, "kyber768", "dilithium3")
}

func BenchmarkHandshakeX25519Ed25519(b *testing.B) {
	benchHandshake(b, "x25519", "ed25519")
}

func benchHandshake(b *testing.B, kemName, sigName string) {
	creds, err := harness.CredentialsFor(sigName, 1)
	if err != nil {
		b.Fatal(err)
	}
	run := func() error {
		_, _, err := pqtls.InMemoryHandshake(&pqtls.Config{
			KEMName: kemName, SigName: sigName, ServerName: "server.example",
			Roots: creds.Roots,
		}, &pqtls.Config{
			KEMName: kemName, SigName: sigName, ServerName: "server.example",
			Chain: creds.Chain, PrivateKey: creds.Priv,
		})
		return err
	}
	if err := run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeySchedule runs one full server-side HKDF derivation chain
// (early → handshake → master secrets, both traffic pairs, finished MACs)
// through the scratch-buffer key schedule. It must report 0 allocs/op:
// this chain runs once per accepted handshake.
func BenchmarkKeySchedule(b *testing.B) {
	ks := tls13.NewKeyScheduleKernel()
	ss := make([]byte, 32)
	transcript := make([]byte, 512)
	benchDRBG("keyschedule").Read(ss)
	benchDRBG("keyschedule-transcript").Read(transcript)
	b.ReportAllocs()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		sink ^= ks.Run(ss, transcript)
	}
	_ = sink
}

// BenchmarkTicketSealOpen measures a session-ticket issue + redeem round
// trip on the key-sharded store (cached AEAD, atomic counters).
func BenchmarkTicketSealOpen(b *testing.B) {
	ts := tls13.NewTicketStore([16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	psk := make([]byte, 32)
	benchDRBG("ticket").Read(psk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tkt, err := ts.Seal(psk, "kyber768")
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ts.Open(tkt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowRecord measures the windowed-telemetry hot path: recording
// a completion into a window that already exists. It must report 0
// allocs/op — this runs once per handshake whenever -window is set, and
// window creation is amortized over the interval, never paid per event.
func BenchmarkWindowRecord(b *testing.B) {
	tl := obs.NewTimeline(100 * time.Millisecond)
	for i := 0; i < 64; i++ {
		tl.RecordStart(time.Duration(i) * 100 * time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Duration(i%64) * 100 * time.Millisecond
		tl.RecordComplete(at, time.Millisecond, i%4 == 0, false)
	}
}

// BenchmarkWindowMerge measures the coordinator's per-progress-frame fold
// of one worker timeline snapshot into the fleet rollup (32 active
// windows). Cloning allocates by design; this pins ns/op.
func BenchmarkWindowMerge(b *testing.B) {
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
}
