package tls13

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Handshake message types.
const (
	typeClientHello       uint8 = 1
	typeServerHello       uint8 = 2
	typeEncryptedExts     uint8 = 8
	typeCertificate       uint8 = 11
	typeCertificateVerify uint8 = 15
	typeFinished          uint8 = 20
)

// Extension codepoints.
const (
	extServerName        uint16 = 0
	extSupportedGroups   uint16 = 10
	extSignatureAlgs     uint16 = 13
	extSupportedVersions uint16 = 43
	extKeyShare          uint16 = 51
)

const cipherAES128GCMSHA256 uint16 = 0x1301

// tls13Version is the supported_versions value for TLS 1.3.
const tls13Version uint16 = 0x0304

// handshakeMsg wraps a message body with its 4-byte header.
func handshakeMsg(typ uint8, body []byte) []byte {
	out := make([]byte, 4+len(body))
	out[0] = typ
	out[1] = byte(len(body) >> 16)
	out[2] = byte(len(body) >> 8)
	out[3] = byte(len(body))
	copy(out[4:], body)
	return out
}

// clientHello is the subset of ClientHello this stack negotiates.
type clientHello struct {
	random     [32]byte
	sessionID  [32]byte
	serverName string
	group      uint16   // group of the offered key share
	groups     []uint16 // all supported groups (for HelloRetryRequest)
	sigAlg     uint16   // offered (single) signature scheme
	keyShare   []byte   // public key for group
}

func (ch *clientHello) marshal() []byte {
	var b bytes.Buffer
	writeU16(&b, legacyVersion)
	b.Write(ch.random[:])
	b.WriteByte(32)
	b.Write(ch.sessionID[:])
	writeU16(&b, 2) // cipher suites length
	writeU16(&b, cipherAES128GCMSHA256)
	b.WriteByte(1) // compression methods
	b.WriteByte(0)

	var exts bytes.Buffer
	// server_name
	var sni bytes.Buffer
	writeU16(&sni, uint16(len(ch.serverName)+3))
	sni.WriteByte(0) // host_name
	writeU16(&sni, uint16(len(ch.serverName)))
	sni.WriteString(ch.serverName)
	writeExt(&exts, extServerName, sni.Bytes())
	// supported_groups: the key-share group first, then alternates.
	all := ch.groups
	if len(all) == 0 {
		all = []uint16{ch.group}
	}
	var groups bytes.Buffer
	writeU16(&groups, uint16(2*len(all)))
	for _, g := range all {
		writeU16(&groups, g)
	}
	writeExt(&exts, extSupportedGroups, groups.Bytes())
	// signature_algorithms
	var sigs bytes.Buffer
	writeU16(&sigs, 2)
	writeU16(&sigs, ch.sigAlg)
	writeExt(&exts, extSignatureAlgs, sigs.Bytes())
	// supported_versions
	writeExt(&exts, extSupportedVersions, []byte{2, byte(tls13Version >> 8), byte(tls13Version & 0xff)})
	// key_share
	var ks bytes.Buffer
	writeU16(&ks, uint16(4+len(ch.keyShare)))
	writeU16(&ks, ch.group)
	writeU16(&ks, uint16(len(ch.keyShare)))
	ks.Write(ch.keyShare)
	writeExt(&exts, extKeyShare, ks.Bytes())

	writeU16(&b, uint16(exts.Len()))
	b.Write(exts.Bytes())
	return handshakeMsg(typeClientHello, b.Bytes())
}

func parseClientHello(body []byte) (*clientHello, error) {
	r := bytes.NewReader(body)
	ch := &clientHello{}
	if _, err := readU16(r); err != nil { // legacy version
		return nil, err
	}
	if err := readFull(r, ch.random[:]); err != nil {
		return nil, err
	}
	sidLen, err := r.ReadByte()
	if err != nil || sidLen != 32 {
		return nil, errors.New("tls13: unexpected session id")
	}
	if err := readFull(r, ch.sessionID[:]); err != nil {
		return nil, err
	}
	csLen, err := readU16(r)
	if err != nil {
		return nil, err
	}
	if _, err := readN(r, int(csLen)); err != nil {
		return nil, err
	}
	compLen, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if _, err := readN(r, int(compLen)); err != nil {
		return nil, err
	}
	extLen, err := readU16(r)
	if err != nil {
		return nil, err
	}
	exts, err := readN(r, int(extLen))
	if err != nil {
		return nil, err
	}
	return ch, parseCHExtensions(ch, exts)
}

func parseCHExtensions(ch *clientHello, exts []byte) error {
	for len(exts) > 0 {
		if len(exts) < 4 {
			return errors.New("tls13: truncated extension")
		}
		typ := binary.BigEndian.Uint16(exts)
		n := int(binary.BigEndian.Uint16(exts[2:]))
		if len(exts) < 4+n {
			return errors.New("tls13: truncated extension body")
		}
		body := exts[4 : 4+n]
		exts = exts[4+n:]
		switch typ {
		case extServerName:
			if n < 5 {
				return errors.New("tls13: bad server_name")
			}
			ch.serverName = string(body[5:])
		case extSupportedGroups:
			if n < 4 {
				return errors.New("tls13: bad supported_groups")
			}
			for i := 2; i+1 < n; i += 2 {
				ch.groups = append(ch.groups, binary.BigEndian.Uint16(body[i:]))
			}
		case extSignatureAlgs:
			if n < 4 {
				return errors.New("tls13: bad signature_algorithms")
			}
			ch.sigAlg = binary.BigEndian.Uint16(body[2:])
		case extKeyShare:
			if n < 8 {
				return errors.New("tls13: bad key_share")
			}
			ch.group = binary.BigEndian.Uint16(body[2:])
			kLen := int(binary.BigEndian.Uint16(body[4:]))
			if len(body) < 6+kLen {
				return errors.New("tls13: truncated key_share")
			}
			ch.keyShare = body[6 : 6+kLen]
		case extSupportedVersions:
			found := false
			for i := 1; i+1 < len(body); i += 2 {
				if binary.BigEndian.Uint16(body[i:]) == tls13Version {
					found = true
				}
			}
			if !found {
				return errors.New("tls13: client does not offer TLS 1.3")
			}
		}
	}
	return nil
}

// serverHello mirrors clientHello for the server's response.
type serverHello struct {
	random    [32]byte
	sessionID [32]byte
	group     uint16
	keyShare  []byte // KEM ciphertext / server ECDH share
}

func (sh *serverHello) marshal() []byte {
	var b bytes.Buffer
	writeU16(&b, legacyVersion)
	b.Write(sh.random[:])
	b.WriteByte(32)
	b.Write(sh.sessionID[:])
	writeU16(&b, cipherAES128GCMSHA256)
	b.WriteByte(0) // compression

	var exts bytes.Buffer
	writeExt(&exts, extSupportedVersions, []byte{byte(tls13Version >> 8), byte(tls13Version & 0xff)})
	var ks bytes.Buffer
	writeU16(&ks, sh.group)
	writeU16(&ks, uint16(len(sh.keyShare)))
	ks.Write(sh.keyShare)
	writeExt(&exts, extKeyShare, ks.Bytes())

	writeU16(&b, uint16(exts.Len()))
	b.Write(exts.Bytes())
	return handshakeMsg(typeServerHello, b.Bytes())
}

func parseServerHello(body []byte) (*serverHello, error) {
	r := bytes.NewReader(body)
	sh := &serverHello{}
	if _, err := readU16(r); err != nil {
		return nil, err
	}
	if err := readFull(r, sh.random[:]); err != nil {
		return nil, err
	}
	sidLen, err := r.ReadByte()
	if err != nil || sidLen != 32 {
		return nil, errors.New("tls13: unexpected session id")
	}
	if err := readFull(r, sh.sessionID[:]); err != nil {
		return nil, err
	}
	suite, err := readU16(r)
	if err != nil {
		return nil, err
	}
	if suite != cipherAES128GCMSHA256 {
		return nil, fmt.Errorf("tls13: server chose unsupported suite %#04x", suite)
	}
	if _, err := r.ReadByte(); err != nil { // compression
		return nil, err
	}
	extLen, err := readU16(r)
	if err != nil {
		return nil, err
	}
	exts, err := readN(r, int(extLen))
	if err != nil {
		return nil, err
	}
	for len(exts) > 0 {
		if len(exts) < 4 {
			return nil, errors.New("tls13: truncated extension")
		}
		typ := binary.BigEndian.Uint16(exts)
		n := int(binary.BigEndian.Uint16(exts[2:]))
		if len(exts) < 4+n {
			return nil, errors.New("tls13: truncated extension body")
		}
		body := exts[4 : 4+n]
		exts = exts[4+n:]
		switch typ {
		case extKeyShare:
			if n < 4 {
				return nil, errors.New("tls13: bad key_share")
			}
			sh.group = binary.BigEndian.Uint16(body)
			kLen := int(binary.BigEndian.Uint16(body[2:]))
			if len(body) < 4+kLen {
				return nil, errors.New("tls13: truncated key_share")
			}
			sh.keyShare = body[4 : 4+kLen]
		}
	}
	if sh.keyShare == nil {
		return nil, errors.New("tls13: ServerHello without key_share")
	}
	return sh, nil
}

// marshalCertificate builds the Certificate message from raw cert encodings.
func marshalCertificate(certs [][]byte) []byte {
	var list bytes.Buffer
	for _, c := range certs {
		writeU24(&list, len(c))
		list.Write(c)
		writeU16(&list, 0) // no per-certificate extensions
	}
	var b bytes.Buffer
	b.WriteByte(0) // empty certificate_request_context
	writeU24(&b, list.Len())
	b.Write(list.Bytes())
	return handshakeMsg(typeCertificate, b.Bytes())
}

func parseCertificate(body []byte) ([][]byte, error) {
	r := bytes.NewReader(body)
	ctxLen, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if _, err := readN(r, int(ctxLen)); err != nil {
		return nil, err
	}
	listLen, err := readU24(r)
	if err != nil {
		return nil, err
	}
	list, err := readN(r, listLen)
	if err != nil {
		return nil, err
	}
	var certs [][]byte
	for len(list) > 0 {
		if len(list) < 3 {
			return nil, errors.New("tls13: truncated certificate entry")
		}
		n := int(list[0])<<16 | int(list[1])<<8 | int(list[2])
		if len(list) < 3+n+2 {
			return nil, errors.New("tls13: truncated certificate data")
		}
		certs = append(certs, list[3:3+n])
		extLen := int(binary.BigEndian.Uint16(list[3+n:]))
		list = list[3+n+2:]
		if len(list) < extLen {
			return nil, errors.New("tls13: truncated certificate extensions")
		}
		list = list[extLen:]
	}
	if len(certs) == 0 {
		return nil, errors.New("tls13: empty certificate list")
	}
	return certs, nil
}

// marshalCertVerify builds the CertificateVerify message.
func marshalCertVerify(sigAlg uint16, signature []byte) []byte {
	var b bytes.Buffer
	writeU16(&b, sigAlg)
	writeU16(&b, uint16(len(signature)))
	b.Write(signature)
	return handshakeMsg(typeCertificateVerify, b.Bytes())
}

func parseCertVerify(body []byte) (sigAlg uint16, signature []byte, err error) {
	if len(body) < 4 {
		return 0, nil, errors.New("tls13: short CertificateVerify")
	}
	sigAlg = binary.BigEndian.Uint16(body)
	n := int(binary.BigEndian.Uint16(body[2:]))
	if len(body) != 4+n {
		return 0, nil, errors.New("tls13: bad CertificateVerify length")
	}
	return sigAlg, body[4:], nil
}

// certVerifyContent builds the signed content of CertificateVerify
// (RFC 8446 §4.4.3, server variant).
func certVerifyContent(transcriptHash []byte) []byte {
	var b bytes.Buffer
	for i := 0; i < 64; i++ {
		b.WriteByte(0x20)
	}
	b.WriteString("TLS 1.3, server CertificateVerify")
	b.WriteByte(0)
	b.Write(transcriptHash)
	return b.Bytes()
}

func writeU16(b *bytes.Buffer, v uint16) {
	b.WriteByte(byte(v >> 8))
	b.WriteByte(byte(v))
}

func writeU24(b *bytes.Buffer, v int) {
	b.WriteByte(byte(v >> 16))
	b.WriteByte(byte(v >> 8))
	b.WriteByte(byte(v))
}

func writeExt(b *bytes.Buffer, typ uint16, body []byte) {
	writeU16(b, typ)
	writeU16(b, uint16(len(body)))
	b.Write(body)
}

func readU16(r *bytes.Reader) (uint16, error) {
	var buf [2]byte
	if err := readFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(buf[:]), nil
}

func readU24(r *bytes.Reader) (int, error) {
	var buf [3]byte
	if err := readFull(r, buf[:]); err != nil {
		return 0, err
	}
	return int(buf[0])<<16 | int(buf[1])<<8 | int(buf[2]), nil
}

func readN(r *bytes.Reader, n int) ([]byte, error) {
	out := make([]byte, n)
	return out, readFull(r, out)
}

func readFull(r *bytes.Reader, out []byte) error {
	if r.Len() < len(out) {
		return errors.New("tls13: truncated message")
	}
	_, err := r.Read(out)
	return err
}
