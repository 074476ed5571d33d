package tls13

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
)

// Concurrent seal/open/stats over one store; meaningful under -race (make
// check runs the package race-enabled) and as a counter-consistency check.
func TestTicketStoreConcurrent(t *testing.T) {
	t.Parallel()
	var key [ticketKeySize]byte
	key[0] = 0x5A
	ts := NewTicketStore(key)
	psk := bytes.Repeat([]byte{0xCD}, 32)

	const goroutines, iters = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ticket, err := ts.Seal(psk, "kyber768")
				if err != nil {
					t.Errorf("seal: %v", err)
					return
				}
				got, name, err := ts.Open(ticket)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if !bytes.Equal(got, psk) || name != "kyber768" {
					t.Error("roundtrip corrupted state")
					return
				}
				// A deliberately corrupted ticket must count as rejected.
				ticket[len(ticket)-1] ^= 0xFF
				if _, _, err := ts.Open(ticket); err == nil {
					t.Error("tampered ticket accepted")
					return
				}
				_ = ts.Stats()
			}
		}(g)
	}
	wg.Wait()

	st := ts.Stats()
	want := uint64(goroutines * iters)
	if st.Issued != want || st.Redeemed != want || st.Rejected != want {
		t.Errorf("stats = %+v, want %d of each", st, want)
	}
}

// Counter-mode nonces must never repeat within a store: the (prefix, shard,
// sequence) layout makes every sealed ticket's nonce unique.
func TestTicketStoreNonceUnique(t *testing.T) {
	t.Parallel()
	ts := NewTicketStore([ticketKeySize]byte{1})
	psk := bytes.Repeat([]byte{7}, 32)
	seen := make(map[[ticketNonceSize]byte]bool)
	for i := 0; i < 2000; i++ {
		ticket, err := ts.Seal(psk, "x25519")
		if err != nil {
			t.Fatal(err)
		}
		var nonce [ticketNonceSize]byte
		copy(nonce[:], ticket[:ticketNonceSize])
		if seen[nonce] {
			t.Fatalf("nonce repeated after %d seals: %x", i, nonce)
		}
		seen[nonce] = true
		// Layout: per-store prefix, shard byte, big-endian sequence.
		if !bytes.Equal(nonce[:4], ts.prefix[:]) {
			t.Fatal("nonce prefix mismatch")
		}
		if int(nonce[4]) >= ticketShards {
			t.Fatalf("shard byte %d out of range", nonce[4])
		}
		seq := binary.BigEndian.Uint64(append([]byte{0}, nonce[5:]...))
		if seq == 0 {
			t.Fatal("sequence must start at 1")
		}
	}
}
