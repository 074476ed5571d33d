package tls13

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"io"
)

// PSK session resumption (RFC 8446 §2.2, §4.6.1): after a full handshake
// the server issues a NewSessionTicket; a later connection presents it in a
// pre_shared_key extension and skips the Certificate and CertificateVerify
// flights entirely. For post-quantum TLS this is the mechanism that
// amortizes the (large, slow) PQ authentication: a resumed handshake's cost
// is key agreement only. See harness.RunResumptionComparison.

const (
	typeNewSessionTicket uint8  = 4
	extPreSharedKey      uint16 = 41
	extPSKModes          uint16 = 45
)

// Session is the client-side resumption state from a NewSessionTicket.
type Session struct {
	Ticket []byte // opaque server-encrypted state
	PSK    []byte // resumption pre-shared key
	// KEMName records the original suite; resumption reuses it.
	KEMName string
}

// ticketKeySize is the AES-128 key protecting server ticket state.
const ticketKeySize = 16

// SessionTicket builds the post-handshake NewSessionTicket flight (one
// encrypted record under the server application traffic key). The ticket
// seals the PSK through Config.Tickets so any server instance whose store
// holds the same key can resume the session.
func (s *Server) SessionTicket() ([]Record, *Session, error) {
	if !s.done {
		return nil, nil, errors.New("tls13: SessionTicket before handshake completion")
	}
	defer s.cfg.phase(PhaseTicketIssue)()
	store := s.cfg.Tickets
	if store == nil {
		return nil, nil, errors.New("tls13: server has no ticket store configured")
	}
	// resumption_master_secret -> PSK via the ticket nonce.
	var nonce [8]byte
	if _, err := io.ReadFull(rand.Reader, nonce[:]); err != nil {
		return nil, nil, err
	}
	resMaster := deriveSecret(s.ks.masterSecret[:], "res master", s.ks.transcriptHash())
	psk := hkdfExpandLabel(resMaster, "resumption", nonce[:], sha256.Size)

	ticket, err := store.Seal(psk, s.cfg.KEMName)
	if err != nil {
		return nil, nil, err
	}
	var body bytes.Buffer
	writeU32(&body, 7200) // ticket_lifetime
	writeU32(&body, 0)    // ticket_age_add (age checks are out of scope)
	body.WriteByte(byte(len(nonce)))
	body.Write(nonce[:])
	writeU16(&body, uint16(len(ticket)))
	body.Write(ticket)
	writeU16(&body, 0) // extensions
	msg := handshakeMsg(typeNewSessionTicket, body.Bytes())

	// Post-handshake messages travel under the application traffic keys.
	appKey, appIV := s.ks.trafficKeys(s.ks.serverAppTraffic[:])
	hc, err := newHalfConn(appKey, appIV)
	if err != nil {
		return nil, nil, err
	}
	// hc is single-use, so the record may keep aliasing its seal scratch.
	rec, err := hc.seal(RecordHandshake, msg)
	if err != nil {
		return nil, nil, err
	}
	return []Record{rec}, &Session{Ticket: ticket, PSK: psk, KEMName: s.cfg.KEMName}, nil
}

// ProcessTicket consumes a NewSessionTicket flight on the client and
// returns the session usable for resumption.
func (c *Client) ProcessTicket(records []Record) (*Session, error) {
	if !c.done {
		return nil, errors.New("tls13: ProcessTicket before handshake completion")
	}
	defer c.cfg.phase(PhaseTicketProcess)()
	appKey, appIV := c.ks.trafficKeys(c.ks.serverAppTraffic[:])
	hc, err := newHalfConn(appKey, appIV)
	if err != nil {
		return nil, err
	}
	for _, rec := range records {
		innerType, plaintext, err := hc.open(rec)
		if err != nil {
			return nil, err
		}
		if innerType != RecordHandshake {
			continue
		}
		typ, body, _, err := parseHandshakeMsg(plaintext)
		if err != nil {
			return nil, err
		}
		if typ != typeNewSessionTicket {
			continue
		}
		r := bytes.NewReader(body)
		if _, err := readN(r, 8); err != nil { // lifetime + age_add
			return nil, err
		}
		nonceLen, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		nonce, err := readN(r, int(nonceLen))
		if err != nil {
			return nil, err
		}
		tktLen, err := readU16(r)
		if err != nil {
			return nil, err
		}
		ticket, err := readN(r, int(tktLen))
		if err != nil {
			return nil, err
		}
		resMaster := deriveSecret(c.ks.masterSecret[:], "res master", c.ks.transcriptHash())
		psk := hkdfExpandLabel(resMaster, "resumption", nonce, sha256.Size)
		return &Session{Ticket: ticket, PSK: psk, KEMName: c.cfg.KEMName}, nil
	}
	return nil, errors.New("tls13: no NewSessionTicket in flight")
}

// binderKey derives the PSK binder key from the resumption PSK.
func binderKey(psk []byte) []byte {
	early := hkdfExtract(nil, psk)
	return deriveSecret(early, "res binder", emptyHash())
}

// computeBinder is the HMAC over the partial ClientHello transcript.
func computeBinder(psk, partialCH []byte) []byte {
	th := sha256.Sum256(partialCH)
	return finishedMAC(binderKey(psk), th[:])
}

// binderSuffixLen is the wire size of the binders list we emit: 2-byte list
// length + 1-byte binder length + 32-byte HMAC.
const binderSuffixLen = 2 + 1 + sha256.Size

// appendPSKExtension rewrites a marshaled ClientHello, appending
// psk_key_exchange_modes and pre_shared_key (which must be last) and
// filling in the binder over the partial transcript.
func appendPSKExtension(chMsg []byte, sess *Session) []byte {
	// Locate the extensions block by walking the fixed ClientHello layout.
	body := chMsg[4:]
	off := 2 + 32             // version + random
	off += 1 + int(body[off]) // session id
	csLen := int(body[off])<<8 | int(body[off+1])
	off += 2 + csLen
	off += 1 + int(body[off]) // compression
	extLen := int(body[off])<<8 | int(body[off+1])
	extStart := off + 2
	exts := append([]byte{}, body[extStart:extStart+extLen]...)

	var pskModes bytes.Buffer
	pskModes.WriteByte(1) // one mode
	pskModes.WriteByte(1) // psk_dhe_ke
	var extBuf bytes.Buffer
	extBuf.Write(exts)
	writeExt(&extBuf, extPSKModes, pskModes.Bytes())

	var pskExt bytes.Buffer
	writeU16(&pskExt, uint16(2+len(sess.Ticket)+4)) // identities length
	writeU16(&pskExt, uint16(len(sess.Ticket)))
	pskExt.Write(sess.Ticket)
	writeU32(&pskExt, 0) // obfuscated_ticket_age
	// Binders: placeholder, filled after the partial transcript is known.
	writeU16(&pskExt, uint16(1+sha256.Size))
	pskExt.WriteByte(sha256.Size)
	pskExt.Write(make([]byte, sha256.Size))
	writeExt(&extBuf, extPreSharedKey, pskExt.Bytes())

	var newBody bytes.Buffer
	newBody.Write(body[:off])
	writeU16(&newBody, uint16(extBuf.Len()))
	newBody.Write(extBuf.Bytes())
	out := handshakeMsg(typeClientHello, newBody.Bytes())

	// Fill the binder over everything before the binders list.
	partial := out[:len(out)-binderSuffixLen]
	binder := computeBinder(sess.PSK, partial)
	copy(out[len(out)-sha256.Size:], binder)
	return out
}

// parsePSKExtension walks the ClientHello's extension list looking for
// pre_shared_key, returning the ticket, the binder, and the partial
// transcript (everything before the binders list) for verification.
func parsePSKExtension(chMsg []byte) (ticket, binder, partial []byte, ok bool) {
	if len(chMsg) < 4 {
		return nil, nil, nil, false
	}
	body := chMsg[4:]
	// Walk the fixed ClientHello layout to the extensions block.
	off := 2 + 32 // version + random
	if len(body) < off+1 {
		return nil, nil, nil, false
	}
	off += 1 + int(body[off]) // session id
	if len(body) < off+2 {
		return nil, nil, nil, false
	}
	off += 2 + (int(body[off])<<8 | int(body[off+1])) // cipher suites
	if len(body) < off+1 {
		return nil, nil, nil, false
	}
	off += 1 + int(body[off]) // compression
	if len(body) < off+2 {
		return nil, nil, nil, false
	}
	extLen := int(body[off])<<8 | int(body[off+1])
	off += 2
	if extLen < 0 || len(body) < off+extLen {
		return nil, nil, nil, false
	}
	end := off + extLen
	for off+4 <= end {
		typ := uint16(body[off])<<8 | uint16(body[off+1])
		n := int(body[off+2])<<8 | int(body[off+3])
		valOff := off + 4
		if valOff+n > end {
			return nil, nil, nil, false
		}
		if typ != extPreSharedKey {
			off = valOff + n
			continue
		}
		val := body[valOff : valOff+n]
		if len(val) < 2 {
			return nil, nil, nil, false
		}
		idLen := int(val[0])<<8 | int(val[1])
		if idLen < 0 || len(val) < 2+idLen {
			return nil, nil, nil, false
		}
		ids := val[2 : 2+idLen]
		if len(ids) < 2 {
			return nil, nil, nil, false
		}
		tktLen := int(ids[0])<<8 | int(ids[1])
		if tktLen < 0 || len(ids) < 2+tktLen+4 {
			return nil, nil, nil, false
		}
		ticket = ids[2 : 2+tktLen]
		// The binders list follows the identities inside the extension.
		bindersOff := valOff + 2 + idLen
		binders := body[bindersOff : valOff+n]
		if len(binders) < 3+sha256.Size || binders[2] != sha256.Size {
			return nil, nil, nil, false
		}
		binder = binders[3 : 3+sha256.Size]
		// Partial transcript: the full message up to the binders list
		// (RFC 8446 §4.2.11.2), including the 4-byte message header.
		partial = chMsg[:4+bindersOff]
		return ticket, binder, partial, true
	}
	return nil, nil, nil, false
}

func writeU32(b *bytes.Buffer, v uint32) {
	b.WriteByte(byte(v >> 24))
	b.WriteByte(byte(v >> 16))
	b.WriteByte(byte(v >> 8))
	b.WriteByte(byte(v))
}
