package pki

import (
	"bytes"
	"runtime"
	"testing"

	"pqtls/internal/sig"
)

// issueTestChain builds root -> leaf with the given algorithms.
func issueTestChain(t *testing.T, rootAlg, leafAlg string) (*Pool, []*Certificate, []byte) {
	t.Helper()
	rootScheme := sig.MustByName(rootAlg)
	root, rootPriv, err := SelfSigned("Test Root CA", rootScheme, nil)
	if err != nil {
		t.Fatal(err)
	}
	leafScheme := sig.MustByName(leafAlg)
	leafPub, leafPriv, err := leafScheme.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := Issue(2, "server.example", leafAlg, leafPub, root, rootPriv)
	if err != nil {
		t.Fatal(err)
	}
	return NewPool(root), []*Certificate{leaf}, leafPriv
}

func TestVerifyChain(t *testing.T) {
	t.Parallel()
	cases := []struct{ root, leaf string }{
		{"rsa:2048", "rsa:2048"},
		{"rsa:2048", "dilithium2"},
		{"dilithium3", "dilithium3"},
		{"falcon512", "falcon512"},
		{"rsa:2048", "p256_dilithium2"},
	}
	for _, c := range cases {
		pool, chain, _ := issueTestChain(t, c.root, c.leaf)
		leaf, err := pool.Verify(chain)
		if err != nil {
			t.Errorf("%s->%s: %v", c.root, c.leaf, err)
			continue
		}
		if leaf.Subject != "server.example" {
			t.Errorf("%s->%s: wrong leaf %q", c.root, c.leaf, leaf.Subject)
		}
	}
}

func TestVerifyRejectsTamper(t *testing.T) {
	t.Parallel()
	pool, chain, _ := issueTestChain(t, "rsa:2048", "dilithium2")
	chain[0].Subject = "evil.example"
	if _, err := pool.Verify(chain); err == nil {
		t.Error("tampered certificate accepted")
	}
}

func TestVerifyUnknownRoot(t *testing.T) {
	t.Parallel()
	_, chain, _ := issueTestChain(t, "rsa:2048", "rsa:2048")
	empty := NewPool()
	if _, err := empty.Verify(chain); err == nil {
		t.Error("chain accepted with empty root pool")
	}
	if _, err := empty.Verify(nil); err == nil {
		t.Error("empty chain accepted")
	}
}

func TestIntermediate(t *testing.T) {
	t.Parallel()
	rootScheme := sig.MustByName("rsa:2048")
	root, rootPriv, err := SelfSigned("Root", rootScheme, nil)
	if err != nil {
		t.Fatal(err)
	}
	intScheme := sig.MustByName("dilithium2")
	intPub, intPriv, err := intScheme.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	intermediate, err := Issue(2, "Intermediate", "dilithium2", intPub, root, rootPriv)
	if err != nil {
		t.Fatal(err)
	}
	leafScheme := sig.MustByName("falcon512")
	leafPub, _, err := leafScheme.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := Issue(3, "leaf.example", "falcon512", leafPub, intermediate, intPriv)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(root)
	if _, err := pool.Verify([]*Certificate{leaf, intermediate}); err != nil {
		t.Errorf("three-level chain rejected: %v", err)
	}
	// Wrong order must fail.
	if _, err := pool.Verify([]*Certificate{intermediate, leaf}); err == nil {
		t.Error("out-of-order chain accepted")
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	t.Parallel()
	_, chain, _ := issueTestChain(t, "rsa:2048", "dilithium2")
	data := chain[0].Marshal()
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Subject != chain[0].Subject || back.Algorithm != chain[0].Algorithm {
		t.Error("roundtrip changed fields")
	}
	if _, err := Unmarshal(data[:10]); err == nil {
		t.Error("truncated certificate accepted")
	}
	if _, err := Unmarshal(append(data, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// A truncated certificate declaring a 16 MiB public key must fail without
// allocating the declared length.
func TestUnmarshalOversizedFieldTruncated(t *testing.T) {
	var b bytes.Buffer
	b.Write(make([]byte, 8)) // serial
	for _, s := range []string{"leaf", "Test Root CA", "dilithium2", "rsa:2048"} {
		writeStr(&b, s)
	}
	b.Write([]byte{0xFF, 0xFF, 0xFF}) // public key claims 2^24-1 bytes
	b.Write([]byte{1, 2, 3, 4})       // ...but only four follow
	data := b.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated certificate with a 16 MiB field accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("Unmarshal allocated %d bytes for a %d-byte input", grew, len(data))
	}
}

// Certificate encoding overhead must stay small and constant: the PQ blowup
// the paper measures comes from keys/signatures, not our framing.
func TestEncodingOverhead(t *testing.T) {
	t.Parallel()
	_, chain, _ := issueTestChain(t, "rsa:2048", "dilithium2")
	c := chain[0]
	overhead := len(c.Marshal()) - len(c.PublicKey) - len(c.Signature)
	if overhead > 120 {
		t.Errorf("encoding overhead %d bytes, want <= 120", overhead)
	}
}
