package tls13

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"pqtls/internal/kem"
	"pqtls/internal/sig"
)

// A message may span records, a record may carry several messages, and the
// 4-byte header itself may be split (RFC 8446 §5.1).
func TestReassemblerSplitsAndJoins(t *testing.T) {
	t.Parallel()
	a := handshakeMsg(typeEncryptedExts, []byte{0, 0})
	b := handshakeMsg(typeCertificate, bytes.Repeat([]byte{7}, 300))
	c := handshakeMsg(typeFinished, bytes.Repeat([]byte{9}, 32))
	flight := bytes.Join([][]byte{a, b, c}, nil)
	want := [][]byte{a, b, c}
	for _, cuts := range [][]int{
		{len(flight)},         // all three in one record
		{2, 1, len(flight)},   // header split 2+1+1
		{len(a) + 3, 100},     // second header split across records
		{1, 1, 1, 1, 1, 1, 1}, // 1-byte records
	} {
		var frags [][]byte
		rest := flight
		for i := 0; len(rest) > 0; i++ {
			n := len(rest)
			if i < len(cuts) {
				n = min(cuts[i], len(rest))
			}
			frags, rest = append(frags, rest[:n]), rest[n:]
		}
		got, buffered, err := reassemble(serverMessageLimit(), frags...)
		if err != nil || buffered != 0 {
			t.Fatalf("cuts %v: err %v, %d bytes left", cuts, err, buffered)
		}
		if len(got) != len(want) {
			t.Fatalf("cuts %v: %d messages, want %d", cuts, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("cuts %v: message %d differs", cuts, i)
			}
		}
	}
}

func TestReassemblerRejectsZeroLengthRecord(t *testing.T) {
	t.Parallel()
	if _, _, err := reassemble(64, []byte{1, 0}, nil); !errors.Is(err, errEmptyFragment) {
		t.Errorf("zero-length record: err %v, want %v", err, errEmptyFragment)
	}
	if alertFor(errEmptyFragment) != AlertUnexpectedMessage {
		t.Errorf("zero-length record maps to alert %d, want unexpected_message", alertFor(errEmptyFragment))
	}
}

// A declared length over the cap is refused from the header alone, whether
// the header arrives whole or split, before any body byte is buffered.
func TestReassemblerCapBeforeBuffering(t *testing.T) {
	t.Parallel()
	const limit = 100
	over := append([]byte{typeClientHello, 0, 0, limit - 3}, make([]byte, 50)...)
	for _, frags := range [][][]byte{
		{over},
		{over[:2], over[2:]},
		{over[:3], over[3:4], over[4:]},
	} {
		r := reassembler{limit: limit}
		var err error
		for _, f := range frags {
			if err = r.push(f); err == nil {
				_, _, _, err = r.next()
			}
			if err != nil {
				break
			}
		}
		if err == nil || alertFor(err) != AlertRecordOverflow {
			t.Fatalf("%d fragments: err %v, want record_overflow", len(frags), err)
		}
		if len(r.buf) > 4 {
			t.Errorf("%d fragments: %d bytes buffered before the cap check", len(frags), len(r.buf))
		}
	}
	// Exactly at the cap is accepted.
	ok := append([]byte{typeClientHello, 0, 0, limit - 4}, make([]byte, limit-4)...)
	if msgs, _, err := reassemble(limit, ok[:10], ok[10:]); err != nil || len(msgs) != 1 {
		t.Errorf("message at the cap: %d messages, err %v", len(msgs), err)
	}
}

// Bytes left over after a ClientHello cross the server's key change.
func TestKeyChangeRejectsLeftoverBytes(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "x25519", "ed25519", BufferImmediate)
	cli, _ := NewClient(cliCfg)
	srv, _ := NewServer(srvCfg)
	ch, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	padded := Record{Type: RecordHandshake, Payload: append(bytes.Clone(ch[0].Payload), typeFinished)}
	_, err = srv.Respond([]Record{padded})
	if !errors.Is(err, errSpansKeyChange) || alertFor(err) != AlertUnexpectedMessage {
		t.Errorf("ClientHello with trailing bytes: err %v, want %v", err, errSpansKeyChange)
	}
}

// The caps are derived from the registries: a real key share of every
// registered KEM, in a ClientHello offering every group, a maximal server
// name and a PSK, fits the server's cap, and every ServerHello and
// CertificateVerify fits the client's.
func TestCapsCoverRegisteredSuites(t *testing.T) {
	t.Parallel()
	var groups []uint16
	for _, name := range kem.Names() {
		if id, err := GroupID(name); err == nil {
			groups = append(groups, id)
		}
	}
	ticket, err := NewTicketStore([ticketKeySize]byte{}).Seal(make([]byte, sha256.Size), "p521_kyber1024")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range kem.Names() {
		id, err := GroupID(name)
		if err != nil {
			continue
		}
		k := kem.MustByName(name)
		pub, _, err := k.GenerateKey(nil)
		if err != nil {
			t.Fatal(err)
		}
		ch := &clientHello{serverName: strings.Repeat("s", maxNameLen), group: id, groups: groups, keyShare: pub}
		msg := appendPSKExtension(ch.marshal(), &Session{Ticket: ticket, PSK: make([]byte, sha256.Size)})
		if len(msg) > clientHelloLimit() {
			t.Errorf("%s: ClientHello %d bytes over the cap %d", name, len(msg), clientHelloLimit())
		}
		if sh := (&serverHello{keyShare: make([]byte, k.CiphertextSize())}).marshal(); len(sh) > serverMessageLimit() {
			t.Errorf("%s: ServerHello %d bytes over the cap %d", name, len(sh), serverMessageLimit())
		}
	}
	for _, name := range sig.Names() {
		cv := marshalCertVerify(0, make([]byte, sig.MustByName(name).SignatureSize()))
		if len(cv) > serverMessageLimit() {
			t.Errorf("%s: CertificateVerify %d bytes over the cap %d", name, len(cv), serverMessageLimit())
		}
	}
}

// pipeServer runs ServerHandshake on one end of a net.Pipe and returns the
// client end plus the server's eventual error. Both ends carry a deadline,
// so a stalled server fails the test instead of hanging it.
func pipeServer(t *testing.T, srvCfg *Config) (net.Conn, <-chan error) {
	t.Helper()
	cConn, sConn := net.Pipe()
	deadline := time.Now().Add(5 * time.Second)
	cConn.SetDeadline(deadline)
	sConn.SetDeadline(deadline)
	t.Cleanup(func() { cConn.Close(); sConn.Close() })
	errCh := make(chan error, 1)
	go func() {
		_, err := ServerHandshake(sConn, srvCfg)
		errCh <- err
	}()
	return cConn, errCh
}

// finishClient consumes server records until cli completes and returns its
// final flight, unwritten.
func finishClient(conn net.Conn, cli *Client) ([]Record, error) {
	for {
		rec, err := ReadRecord(conn)
		if err != nil {
			return nil, err
		}
		out, done, err := cli.Consume([]Record{rec})
		if err != nil || done {
			return out, err
		}
	}
}

// writeRaw writes bytes that need not form valid records.
func writeRaw(t *testing.T, conn net.Conn, b []byte) {
	t.Helper()
	if _, err := conn.Write(b); err != nil {
		t.Fatalf("write: %v", err)
	}
}

// expectAlert reads the server's fatal alert from conn.
func expectAlert(t *testing.T, conn net.Conn, want uint8) {
	t.Helper()
	rec, err := ReadRecord(conn)
	if err != nil {
		t.Fatalf("reading the alert: %v", err)
	}
	var alert *AlertError
	if !errorsAs(parseAlert(rec), &alert) || rec.Type != RecordAlert {
		t.Fatalf("got record type %d, want an alert", rec.Type)
	}
	if alert.Level != 2 || alert.Description != want {
		t.Errorf("alert level %d description %d, want fatal %d", alert.Level, alert.Description, want)
	}
}

// A ClientHello whose first record carries only 2 bytes of the handshake
// header, and whose next records carry one byte each, still completes.
func TestServerHandshakeFragmentedHeader(t *testing.T) {
	t.Parallel()
	cliCfg, srvCfg := testConfigs(t, "kyber512", "ed25519", BufferImmediate)
	conn, errCh := pipeServer(t, srvCfg)
	cli, _ := NewClient(cliCfg)
	ch, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	msg := ch[0].Payload
	frags := []Record{{Type: RecordHandshake, Payload: msg[:2]}, {Type: RecordHandshake, Payload: msg[2:3]},
		{Type: RecordHandshake, Payload: msg[3:5]}, {Type: RecordHandshake, Payload: msg[5:]}}
	if err := WriteRecords(conn, frags); err != nil {
		t.Fatal(err)
	}
	final, err := finishClient(conn, cli)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := WriteRecords(conn, final); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// Every local failure of ServerHandshake sends exactly one fatal alert with
// the RFC 8446 §6.2 description.
func TestServerHandshakeAlerts(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		want uint8
		// drive plays the client's side of the exchange up to the failure.
		drive func(t *testing.T, conn net.Conn, cli *Client)
	}{
		{"oversized record header", AlertRecordOverflow, func(t *testing.T, conn net.Conn, _ *Client) {
			writeRaw(t, conn, []byte{RecordHandshake, 3, 3, 0xff, 0xff})
		}},
		{"oversized ClientHello declaration", AlertRecordOverflow, func(t *testing.T, conn net.Conn, _ *Client) {
			writeRaw(t, conn, []byte{RecordHandshake, 3, 3, 0, 4, typeClientHello, 0xff, 0xff, 0xff})
		}},
		{"zero-length handshake record", AlertUnexpectedMessage, func(t *testing.T, conn net.Conn, _ *Client) {
			writeRaw(t, conn, []byte{RecordHandshake, 3, 3, 0, 0})
		}},
		{"tampered client Finished", AlertDecryptError, func(t *testing.T, conn net.Conn, cli *Client) {
			startAndFinish(t, conn, cli)
			// A well-protected Finished carrying the wrong MAC.
			key, iv := cli.ks.trafficKeys(cli.ks.clientHSTraffic[:])
			hc, err := newHalfConn(key, iv)
			if err != nil {
				t.Fatal(err)
			}
			bad, err := hc.seal(RecordHandshake, handshakeMsg(typeFinished, make([]byte, sha256.Size)))
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteRecords(conn, []Record{{Type: RecordChangeCipherSpec, Payload: []byte{1}}, bad}); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupted client Finished record", AlertBadRecordMAC, func(t *testing.T, conn net.Conn, cli *Client) {
			final := startAndFinish(t, conn, cli)
			final[len(final)-1].Payload[0] ^= 1
			if err := WriteRecords(conn, final); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			t.Parallel()
			cliCfg, srvCfg := testConfigs(t, "x25519", "ed25519", BufferImmediate)
			conn, errCh := pipeServer(t, srvCfg)
			cli, _ := NewClient(cliCfg)
			tc.drive(t, conn, cli)
			expectAlert(t, conn, tc.want)
			if err := <-errCh; err == nil || alertFor(err) != tc.want {
				t.Errorf("server error %v, want one mapping to alert %d", err, tc.want)
			}
		})
	}
}

// startAndFinish writes cli's ClientHello and consumes the server flight,
// returning the client's final flight unwritten.
func startAndFinish(t *testing.T, conn net.Conn, cli *Client) []Record {
	t.Helper()
	ch, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteRecords(conn, ch); err != nil {
		t.Fatal(err)
	}
	final, err := finishClient(conn, cli)
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	return final
}
