package tls13

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"pqtls/internal/kem"
	"pqtls/internal/pki"
	"pqtls/internal/sig"
)

// reassembler turns handshake record payloads into handshake messages for
// both endpoints. A message may span records and a record may carry several
// messages (RFC 8446 §5.1); post-quantum flights do both. Each pushed byte
// is looked at once: a message complete within a payload is returned in
// place, and only an unfinished message is copied into buf, after its
// declared length has passed the size cap. A peer can therefore make an
// endpoint buffer at most limit bytes, however it fragments its flight.
type reassembler struct {
	limit int    // largest message accepted, 4-byte header included
	in    []byte // pushed bytes not yet split into messages
	buf   []byte // the unfinished message, copied out of earlier pushes
}

var (
	errEmptyFragment  = errors.New("tls13: unexpected zero-length handshake record")
	errSpansKeyChange = errors.New("tls13: unexpected handshake bytes across a key change")
)

// push hands over one record's handshake payload. The caller then drains
// next until it returns no message. The bytes of a returned message are
// valid until the following push or next call.
func (r *reassembler) push(payload []byte) error {
	if len(payload) == 0 {
		return errEmptyFragment
	}
	r.in = payload
	return nil
}

// next splits off the next complete message. It returns full == nil once
// the pushed bytes are used up; an unfinished message stays buffered for
// the next push.
func (r *reassembler) next() (typ uint8, body, full []byte, err error) {
	if len(r.in) == 0 {
		return 0, nil, nil, nil // a buffered message is never complete here
	}
	if len(r.buf) == 0 {
		n, err := r.size(r.in)
		if err != nil {
			return 0, nil, nil, err
		}
		if n == 0 || len(r.in) < n {
			r.buf = append(slices.Grow(r.buf, max(n, 4)), r.in...)
			r.in = nil
			return 0, nil, nil, nil
		}
		full, r.in = r.in[:n], r.in[n:]
		return full[0], full[4:], full, nil
	}
	// Complete the buffered message: first its header, then the body the
	// header declares once it has passed the cap.
	if len(r.buf) < 4 {
		k := min(4-len(r.buf), len(r.in))
		r.buf, r.in = append(r.buf, r.in[:k]...), r.in[k:]
	}
	n, err := r.size(r.buf)
	if err != nil || n == 0 {
		return 0, nil, nil, err
	}
	k := min(n-len(r.buf), len(r.in))
	r.buf, r.in = append(slices.Grow(r.buf, n-len(r.buf)), r.in[:k]...), r.in[k:]
	if len(r.buf) < n {
		return 0, nil, nil, nil
	}
	full, r.buf = r.buf, r.buf[:0]
	return full[0], full[4:], full, nil
}

// size decodes the handshake header at the front of b: the whole message's
// length, or 0 while the header is incomplete. This is the one place the
// 24-bit length a peer declares is read, and where the cap applies.
func (r *reassembler) size(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, nil
	}
	n := 4 + (int(b[1])<<16 | int(b[2])<<8 | int(b[3]))
	if n > r.limit {
		return 0, fmt.Errorf("tls13: record_overflow: handshake message type %d declares %d bytes, limit %d", b[0], n, r.limit)
	}
	return n, nil
}

// keyChange enforces RFC 8446 §5.1 at a key change: the message before it
// must end its record, so nothing may be left over.
func (r *reassembler) keyChange() error {
	if len(r.in) > 0 || len(r.buf) > 0 {
		return errSpansKeyChange
	}
	return nil
}

// maxNameLen bounds every free-form name in a handshake: the server_name,
// a ticket's KEM name, a certificate's names. 255 bytes is a DNS host
// name's limit and the longest KEM name a TicketStore seals.
const maxNameLen = 255

// maxChainCerts is the deepest chain the repo builds (harness.RunChainDepth
// sweeps depths 1 to 3).
const maxChainCerts = 3

// ClientHelloLimit returns the server's cap on a ClientHello, in bytes: the
// most a peer can make a server buffer before any cryptography runs.
func ClientHelloLimit() int { return clientHelloLimit() }

// clientHelloLimit is the largest ClientHello a client of this stack
// sends: the biggest registered key share, every registered group in
// supported_groups, a maximal server name and a PSK offer carrying the
// largest ticket a TicketStore seals.
var clientHelloLimit = sync.OnceValue(func() int {
	name := strings.Repeat("a", maxNameLen)
	ch := &clientHello{serverName: name}
	for _, k := range kem.Names() {
		if id, err := GroupID(k); err == nil {
			ch.groups = append(ch.groups, id)
			ch.keyShare = make([]byte, max(len(ch.keyShare), kem.MustByName(k).PublicKeySize()))
		}
	}
	ticket, err := NewTicketStore([ticketKeySize]byte{}).Seal(make([]byte, sha256.Size), name)
	if err != nil {
		panic("tls13: sizing the ClientHello cap: " + err.Error())
	}
	return len(appendPSKExtension(ch.marshal(), &Session{Ticket: ticket, PSK: make([]byte, sha256.Size)}))
})

// serverMessageLimit is the largest message a server of this stack sends:
// the Certificate message of a maxChainCerts chain whose certificates carry
// the biggest registered public key and signature. It also bounds the
// ServerHello and CertificateVerify (TestCapsCoverRegisteredKEMs).
var serverMessageLimit = sync.OnceValue(func() int {
	name := strings.Repeat("a", maxNameLen)
	cert := &pki.Certificate{Subject: name, Issuer: name, Algorithm: name, SigAlg: name}
	for _, n := range sig.Names() {
		s := sig.MustByName(n)
		cert.PublicKey = make([]byte, max(len(cert.PublicKey), s.PublicKeySize()))
		cert.Signature = make([]byte, max(len(cert.Signature), s.SignatureSize()))
	}
	chain := make([][]byte, maxChainCerts)
	for i := range chain {
		chain[i] = cert.Marshal()
	}
	return len(marshalCertificate(chain))
})
