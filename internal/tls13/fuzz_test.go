package tls13

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"testing/quick"

	"pqtls/internal/kem"
	"pqtls/internal/sig"
)

// Parser robustness: every wire parser must survive arbitrary and truncated
// inputs without panicking — the paper's black-box setup points these
// parsers at whatever the network delivers.

func mustNotPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s panicked: %v", name, r)
		}
	}()
	f()
}

func TestParsersSurviveGarbage(t *testing.T) {
	t.Parallel()
	check := func(data []byte) bool {
		mustNotPanic(t, "ReadRecord", func() { ReadRecord(bytes.NewReader(data)) })
		mustNotPanic(t, "reassembler", func() { reassemble(clientHelloLimit(), data) })
		mustNotPanic(t, "parseClientHello", func() { parseClientHello(data) })
		mustNotPanic(t, "parseServerHello", func() { parseServerHello(data) })
		mustNotPanic(t, "parseCertificate", func() { parseCertificate(data) })
		mustNotPanic(t, "parseCertVerify", func() { parseCertVerify(data) })
		mustNotPanic(t, "parseHRRGroup", func() { parseHRRGroup(data) })
		mustNotPanic(t, "parsePSKExtension", func() { parsePSKExtension(data) })
		mustNotPanic(t, "parseAlert", func() { parseAlert(Record{Type: RecordAlert, Payload: data}) })
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Truncations of a *valid* ClientHello must all be rejected cleanly.
func TestClientHelloTruncations(t *testing.T) {
	t.Parallel()
	ch := &clientHello{serverName: "server.example", group: 0x001d, sigAlg: 0x0805,
		keyShare: make([]byte, 32)}
	body, err := messageBody(ch.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseClientHello(body); err != nil {
		t.Fatalf("valid CH rejected: %v", err)
	}
	for cut := 0; cut < len(body); cut += 7 {
		mustNotPanic(t, "parseClientHello/truncated", func() {
			parseClientHello(body[:cut])
		})
	}
	// Bit flips in length fields must never panic either.
	for pos := 0; pos < len(body); pos += 3 {
		mutated := append([]byte{}, body...)
		mutated[pos] ^= 0xFF
		mustNotPanic(t, "parseClientHello/mutated", func() {
			parseClientHello(mutated)
		})
	}
}

// Record-layer decryption must reject (not panic on) every corruption of a
// valid protected record.
func TestHalfConnOpenRobust(t *testing.T) {
	t.Parallel()
	key := make([]byte, 16)
	iv := make([]byte, 12)
	sender, err := newHalfConn(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sender.seal(RecordHandshake, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(rec.Payload); pos++ {
		receiver, err := newHalfConn(key, iv)
		if err != nil {
			t.Fatal(err)
		}
		bad := Record{Type: rec.Type, Payload: append([]byte{}, rec.Payload...)}
		bad.Payload[pos] ^= 1
		if _, _, err := receiver.open(bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", pos)
		}
	}
	// Truncated ciphertexts as well.
	for cut := 0; cut < len(rec.Payload); cut += 5 {
		receiver, _ := newHalfConn(key, iv)
		mustNotPanic(t, "open/truncated", func() {
			receiver.open(Record{Type: rec.Type, Payload: rec.Payload[:cut]})
		})
	}
}

// reassemble pushes each payload through a fresh reassembler capped at limit
// and returns copies of the messages they complete, plus how many bytes stay
// buffered.
func reassemble(limit int, payloads ...[]byte) (msgs [][]byte, buffered int, err error) {
	r := reassembler{limit: limit}
	for _, p := range payloads {
		if err := r.push(p); err != nil {
			return msgs, len(r.buf), err
		}
		for {
			_, _, full, err := r.next()
			if err != nil {
				return msgs, len(r.buf), err
			}
			if full == nil {
				break
			}
			msgs = append(msgs, bytes.Clone(full))
		}
	}
	return msgs, len(r.buf), nil
}

// messageBody returns the body of msg, which must be exactly one handshake
// message.
func messageBody(msg []byte) ([]byte, error) {
	msgs, buffered, err := reassemble(len(msg), msg)
	if err == nil && (len(msgs) != 1 || buffered != 0) {
		err = fmt.Errorf("tls13: %d messages and %d bytes left over, want one message", len(msgs), buffered)
	}
	if err != nil {
		return nil, err
	}
	return msgs[0][4:], nil
}

// Native fuzz targets. `go test -fuzz=FuzzX -fuzztime=5s ./internal/tls13`
// explores beyond the quick.Check coverage above; without -fuzz the seed
// corpus below runs as a regression test on every `go test`.

// fuzzSeedClientHello builds a valid ClientHello body for the seed corpus.
func fuzzSeedClientHello() []byte {
	ch := &clientHello{serverName: "server.example", group: 0x001d, sigAlg: 0x0805,
		keyShare: make([]byte, 32)}
	body, err := messageBody(ch.marshal())
	if err != nil {
		panic(err)
	}
	return body
}

// fuzzSeedServerHello builds a valid ServerHello body for the seed corpus.
func fuzzSeedServerHello() []byte {
	sh := &serverHello{group: 0x001d, keyShare: make([]byte, 32)}
	body, err := messageBody(sh.marshal())
	if err != nil {
		panic(err)
	}
	return body
}

func FuzzClientHelloParse(f *testing.F) {
	valid := fuzzSeedClientHello()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:4])
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := parseClientHello(data)
		if err != nil {
			return
		}
		// The parser tolerates hellos without a usable key share (group 0 is
		// rejected later, during negotiation), but marshal only represents
		// hellos that carry one — so the round-trip property is scoped to
		// those. (Found by fuzzing: a hello with an absent/1-byte share
		// parses but its re-marshaled key_share is under the 8-byte floor.)
		if len(ch.keyShare) < 2 {
			return
		}
		// Accepted hellos must round-trip through marshal and re-parse:
		// the wire form of what we understood must itself be parseable.
		body, err := messageBody(ch.marshal())
		if err != nil {
			t.Fatalf("re-marshaled ClientHello unparseable: %v", err)
		}
		if _, err := parseClientHello(body); err != nil {
			t.Fatalf("re-marshaled ClientHello rejected: %v", err)
		}
	})
}

func FuzzServerHelloParse(f *testing.F) {
	valid := fuzzSeedServerHello()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:35])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sh, err := parseServerHello(data)
		if err != nil {
			return
		}
		body, err := messageBody(sh.marshal())
		if err != nil {
			t.Fatalf("re-marshaled ServerHello unparseable: %v", err)
		}
		if _, err := parseServerHello(body); err != nil {
			t.Fatalf("re-marshaled ServerHello rejected: %v", err)
		}
	})
}

// FuzzRecordDeprotect drives the record-layer open() with attacker-chosen
// ciphertext. It must never panic, and must never accept a payload that the
// paired sender did not seal (any accepted open here is a forgery, since
// the fuzzer does not know the traffic key).
func FuzzRecordDeprotect(f *testing.F) {
	key := make([]byte, 16)
	iv := make([]byte, 12)
	sender, err := newHalfConn(key, iv)
	if err != nil {
		f.Fatal(err)
	}
	sealed, err := sender.seal(RecordHandshake, []byte("finished message payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed.Payload)
	f.Add(sealed.Payload[:len(sealed.Payload)/2])
	f.Add([]byte{})
	f.Add(make([]byte, 17)) // tag-sized garbage
	f.Fuzz(func(t *testing.T, payload []byte) {
		receiver, err := newHalfConn(key, iv)
		if err != nil {
			t.Fatal(err)
		}
		// Sequence 0 re-seal of the seed payload is the only valid input;
		// everything else must error.
		innerType, plain, err := receiver.open(Record{Type: RecordApplicationData, Payload: payload})
		if err == nil {
			if !bytes.Equal(payload, sealed.Payload) {
				t.Fatalf("forged record accepted: type %d, %q", innerType, plain)
			}
		}
	})
}

// An all-zero inner plaintext (padding only) must be rejected, not sliced
// out of bounds.
func TestAllZeroInnerPlaintext(t *testing.T) {
	t.Parallel()
	key := make([]byte, 16)
	iv := make([]byte, 12)
	sender, _ := newHalfConn(key, iv)
	rec, err := sender.seal(0, nil) // inner type 0 + empty = all-zero inner
	if err != nil {
		t.Fatal(err)
	}
	receiver, _ := newHalfConn(key, iv)
	if _, _, err := receiver.open(rec); err == nil {
		t.Error("all-zero inner plaintext accepted")
	}
}

// reassemblyFlight is one valid flight as the reassembler sees it: the
// concatenated handshake messages, and the cap of the endpoint receiving it.
type reassemblyFlight struct {
	msgs  []byte
	limit int
}

// reassemblyFlights builds each suite's ClientHello and server flight
// (ServerHello, EncryptedExtensions, Certificate, CertificateVerify,
// Finished) at their real sizes, with real certificate chains.
func reassemblyFlights(tb testing.TB) []reassemblyFlight {
	var out []reassemblyFlight
	for _, kemName := range []string{"x25519", "kyber768", "hqc256"} {
		k := kem.MustByName(kemName)
		ch := &clientHello{serverName: "server.example", group: groupIDs[kemName],
			sigAlg: sigIDs["ed25519"], keyShare: make([]byte, k.PublicKeySize())}
		out = append(out, reassemblyFlight{ch.marshal(), clientHelloLimit()})
		for _, sigName := range []string{"ed25519", "dilithium3", "sphincs128"} {
			_, srvCfg := testConfigs(tb, kemName, sigName, BufferImmediate)
			flight := bytes.Join([][]byte{
				(&serverHello{group: groupIDs[kemName], keyShare: make([]byte, k.CiphertextSize())}).marshal(),
				handshakeMsg(typeEncryptedExts, []byte{0, 0}),
				srvCfg.certificateMessage(),
				marshalCertVerify(sigIDs[sigName], make([]byte, sig.MustByName(sigName).SignatureSize())),
				handshakeMsg(typeFinished, make([]byte, 32)),
			}, nil)
			out = append(out, reassemblyFlight{flight, serverMessageLimit()})
		}
	}
	return out
}

// fragment cuts b into records whose sizes are read from the two-byte
// words of sizes; once those run out the rest goes in full-size records.
func fragment(b, sizes []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		n := maxRecordPayload
		if len(sizes) >= 2 {
			n = 1 + int(binary.BigEndian.Uint16(sizes))%maxRecordPayload
			sizes = sizes[2:]
		}
		n = min(n, len(b))
		out, b = append(out, b[:n]), b[n:]
	}
	return out
}

// FuzzHandshakeReassembly checks the one reassembler both endpoints use.
// Splitting a valid flight at fuzzer-chosen record boundaries must yield
// exactly the messages an unsplit push yields. Arbitrary bytes, fragmented
// the same way, must never panic the reassembler or make it buffer more
// than its cap.
func FuzzHandshakeReassembly(f *testing.F) {
	flights := reassemblyFlights(f)
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{5, 0, 0, 0, 2, 0x3f, 0xff})
	f.Add([]byte{11, 1, 0, 0, 0})
	f.Add([]byte{typeClientHello, 0xff, 0xff, 0xff, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fl := flights[int(data[0])%len(flights)]
		want, _, err := reassemble(fl.limit, fl.msgs)
		if err != nil {
			t.Fatalf("unsplit flight rejected: %v", err)
		}
		got, buffered, err := reassemble(fl.limit, fragment(fl.msgs, data[1:])...)
		if err != nil || buffered != 0 || len(got) != len(want) {
			t.Fatalf("split flight: %d messages (want %d), %d bytes left, err %v", len(got), len(want), buffered, err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("split flight: message %d differs", i)
			}
		}

		r := reassembler{limit: clientHelloLimit()}
		for _, rec := range fragment(data, data) {
			err := r.push(rec)
			for err == nil {
				var full []byte
				if _, _, full, err = r.next(); full == nil {
					break
				}
			}
			if len(r.buf) > r.limit {
				t.Fatalf("buffered %d bytes, cap %d", len(r.buf), r.limit)
			}
			if err != nil {
				return
			}
		}
	})
}

// The remaining fuzz targets are the parsers a peer reaches before or
// during authentication. Each must reject garbage without panicking.

func FuzzParsePSKExtension(f *testing.F) {
	ch := &clientHello{serverName: "server.example", group: 0x001d, sigAlg: 0x0805, keyShare: make([]byte, 32)}
	valid := appendPSKExtension(ch.marshal(), &Session{Ticket: bytes.Repeat([]byte{7}, 40), PSK: make([]byte, 32)})
	f.Add(valid)
	f.Add(valid[:len(valid)-10])
	f.Add(ch.marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ticket, binder, partial, ok := parsePSKExtension(data)
		if !ok {
			return
		}
		if !bytes.HasPrefix(data, partial) || len(binder) != 32 || len(ticket) > len(data) {
			t.Fatalf("accepted PSK offer points outside its ClientHello")
		}
	})
}

func FuzzParseCertificate(f *testing.F) {
	valid := marshalCertificate([][]byte{bytes.Repeat([]byte{1}, 50), bytes.Repeat([]byte{2}, 20)})[4:]
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		certs, err := parseCertificate(data)
		if err == nil && len(certs) == 0 {
			t.Fatal("empty certificate list accepted")
		}
	})
}

func FuzzParseCertVerify(f *testing.F) {
	valid := marshalCertVerify(0xfea3, bytes.Repeat([]byte{3}, 64))[4:]
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, signature, err := parseCertVerify(data)
		if err == nil && len(data) != 4+len(signature) {
			t.Fatalf("CertificateVerify length %d accepted with a %d-byte signature", len(data), len(signature))
		}
	})
}

func FuzzParseHRRGroup(f *testing.F) {
	valid := marshalHRR([32]byte{1}, 0x023c)[4:]
	f.Add(valid)
	f.Add(valid[:40])
	f.Add(fuzzSeedServerHello())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := parseHRRGroup(data); err == nil && !isHRR(data) {
			t.Fatal("HelloRetryRequest group read from a plain ServerHello")
		}
	})
}
