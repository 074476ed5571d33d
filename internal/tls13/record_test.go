package tls13

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func testHalfConnPair(t *testing.T) (sender, receiver *halfConn) {
	t.Helper()
	key := make([]byte, 16)
	iv := make([]byte, 12)
	for i := range key {
		key[i] = byte(i)
	}
	for i := range iv {
		iv[i] = byte(0xA0 + i)
	}
	sender, err := newHalfConn(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	receiver, err = newHalfConn(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	return sender, receiver
}

// RFC 8446 §5.5: the record sequence number must never wrap. A halfConn
// that reaches 2^64-1 must refuse to protect or deprotect further records
// instead of repeating an AES-GCM nonce.
func TestSeqExhaustion(t *testing.T) {
	t.Parallel()
	sender, receiver := testHalfConnPair(t)

	// One step before the limit still works.
	sender.seq = 1<<64 - 2
	receiver.seq = 1<<64 - 2
	rec, err := sender.seal(RecordApplicationData, []byte("last record"))
	if err != nil {
		t.Fatalf("seal at seq 2^64-2: %v", err)
	}
	if _, _, err := receiver.open(rec); err != nil {
		t.Fatalf("open at seq 2^64-2: %v", err)
	}

	// Both directions are now at the limit and must refuse.
	if sender.seq != 1<<64-1 {
		t.Fatalf("sender seq = %d, want 2^64-1", sender.seq)
	}
	if _, err := sender.seal(RecordApplicationData, []byte("one too many")); err == nil {
		t.Error("seal at seq 2^64-1 succeeded, want sequence-exhaustion error")
	}
	if _, _, err := receiver.open(rec); err == nil {
		t.Error("open at seq 2^64-1 succeeded, want sequence-exhaustion error")
	}

	// The guard must fire before any state change: seq stays pinned.
	if sender.seq != 1<<64-1 || receiver.seq != 1<<64-1 {
		t.Error("sequence number advanced past the exhaustion guard")
	}
}

// Steady-state record protection must not allocate: the paper's
// throughput phase would otherwise be dominated by GC, not crypto.
func TestSealOpenZeroAlloc(t *testing.T) {
	sender, receiver := testHalfConnPair(t)
	payload := make([]byte, 1024)
	// Warm the scratch buffers once.
	warm, err := sender.seal(RecordApplicationData, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := receiver.open(warm); err != nil {
		t.Fatal(err)
	}

	var rec Record
	if n := testing.AllocsPerRun(100, func() {
		sender.seq = 0
		r, err := sender.seal(RecordApplicationData, payload)
		if err != nil {
			t.Fatal(err)
		}
		rec = r
	}); n != 0 {
		t.Errorf("seal allocates %v times per record, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		receiver.seq = 0
		if _, _, err := receiver.open(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("open allocates %v times per record, want 0", n)
	}
}

// seal and open must still roundtrip every payload size up to the record
// limit boundary region after the scratch-reuse rewrite.
func TestSealOpenRoundtripSizes(t *testing.T) {
	t.Parallel()
	sender, receiver := testHalfConnPair(t)
	for _, size := range []int{0, 1, 255, 1024, maxRecordPayload} {
		payload := bytes.Repeat([]byte{byte(size)}, size)
		rec, err := sender.seal(RecordHandshake, payload)
		if err != nil {
			t.Fatalf("size %d: seal: %v", size, err)
		}
		innerType, plain, err := receiver.open(rec)
		if err != nil {
			t.Fatalf("size %d: open: %v", size, err)
		}
		if innerType != RecordHandshake || !bytes.Equal(plain, payload) {
			t.Fatalf("size %d: roundtrip mismatch", size)
		}
	}
}

// Consecutive seals reuse one scratch buffer, so each record's payload is
// only stable until the next seal — the documented aliasing contract that
// sealHandshake's clone relies on.
func TestSealScratchAliasing(t *testing.T) {
	t.Parallel()
	sender, receiver := testHalfConnPair(t)
	first, err := sender.seal(RecordHandshake, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	stable := append([]byte(nil), first.Payload...)
	if _, err := sender.seal(RecordHandshake, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first.Payload, stable) {
		t.Skip("scratch not reused for this size; aliasing contract not exercised")
	}
	// The cloned copy must still decrypt.
	if _, plain, err := receiver.open(Record{Type: RecordApplicationData, Payload: stable}); err != nil || string(plain) != "first" {
		t.Fatalf("cloned payload failed to open: %v", err)
	}
}

// TestReadRecordRejectsOverflow checks that ReadRecord refuses a header
// declaring more than 2^14+256 body bytes instead of allocating it, and
// still accepts a record of exactly the limit.
func TestReadRecordRejectsOverflow(t *testing.T) {
	hdr := []byte{RecordHandshake, 0x03, 0x03, 0, 0}
	binary.BigEndian.PutUint16(hdr[3:], maxRecordWire+1)
	if _, err := ReadRecord(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "record_overflow") {
		t.Fatalf("oversized header: got %v, want a record_overflow error", err)
	}
	binary.BigEndian.PutUint16(hdr[3:], 0xFFFF)
	if _, err := ReadRecord(bytes.NewReader(hdr)); err == nil {
		t.Fatal("65535-byte header accepted")
	}
	ok := Record{Type: RecordApplicationData, Payload: make([]byte, maxRecordWire)}
	rec, err := ReadRecord(bytes.NewReader(ok.Marshal()))
	if err != nil {
		t.Fatalf("record at the limit rejected: %v", err)
	}
	if len(rec.Payload) != maxRecordWire {
		t.Fatalf("payload %d bytes, want %d", len(rec.Payload), maxRecordWire)
	}
}
