// Package pki implements a minimal x509-style public key infrastructure
// with pluggable (including post-quantum) signature algorithms: TLV-encoded
// certificates, issuance, and chain verification against a root store.
//
// Certificate size is a first-order effect in the paper (PQ signatures blow
// up the Certificate message), so the encoding overhead here is kept small
// and constant; the payload is dominated by the embedded public key and the
// issuer's signature exactly as in DER.
package pki

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"pqtls/internal/sig"
)

// Certificate binds a subject name to a public key under a signature
// algorithm, signed by an issuer.
type Certificate struct {
	Serial    uint64
	Subject   string
	Issuer    string
	Algorithm string // sig.Scheme name of the *subject's* key
	SigAlg    string // sig.Scheme name the *issuer* signed with
	PublicKey []byte
	Signature []byte
}

// Chain is what a TLS server presents: the leaf first, optional
// intermediates after, root omitted (the client has it).
type Chain struct {
	Certificates []*Certificate
	PrivateKey   []byte // leaf private key
}

// Pool is a set of trusted root certificates.
type Pool struct {
	roots map[string]*Certificate // by subject
}

// NewPool creates a pool from root certificates.
func NewPool(roots ...*Certificate) *Pool {
	p := &Pool{roots: make(map[string]*Certificate, len(roots))}
	for _, r := range roots {
		p.roots[r.Subject] = r
	}
	return p
}

// Errors returned by chain verification.
var (
	ErrUnknownRoot  = errors.New("pki: issuer not found in root pool")
	ErrBadSignature = errors.New("pki: certificate signature invalid")
	ErrEmptyChain   = errors.New("pki: empty certificate chain")
)

// tbsBytes returns the to-be-signed encoding (everything but the signature).
func (c *Certificate) tbsBytes() []byte {
	var b bytes.Buffer
	writeTBS(&b, c)
	return b.Bytes()
}

func writeTBS(b *bytes.Buffer, c *Certificate) {
	var serial [8]byte
	binary.BigEndian.PutUint64(serial[:], c.Serial)
	b.Write(serial[:])
	writeStr(b, c.Subject)
	writeStr(b, c.Issuer)
	writeStr(b, c.Algorithm)
	writeStr(b, c.SigAlg)
	writeBytes(b, c.PublicKey)
}

// Marshal encodes the certificate.
func (c *Certificate) Marshal() []byte {
	var b bytes.Buffer
	writeTBS(&b, c)
	writeBytes(&b, c.Signature)
	return b.Bytes()
}

// Unmarshal decodes a certificate produced by Marshal.
func Unmarshal(data []byte) (*Certificate, error) {
	r := bytes.NewReader(data)
	c := &Certificate{}
	var serial [8]byte
	if _, err := io.ReadFull(r, serial[:]); err != nil {
		return nil, fmt.Errorf("pki: truncated serial: %w", err)
	}
	c.Serial = binary.BigEndian.Uint64(serial[:])
	var err error
	if c.Subject, err = readStr(r); err != nil {
		return nil, err
	}
	if c.Issuer, err = readStr(r); err != nil {
		return nil, err
	}
	if c.Algorithm, err = readStr(r); err != nil {
		return nil, err
	}
	if c.SigAlg, err = readStr(r); err != nil {
		return nil, err
	}
	if c.PublicKey, err = readBytes(r); err != nil {
		return nil, err
	}
	if c.Signature, err = readBytes(r); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, errors.New("pki: trailing bytes after certificate")
	}
	return c, nil
}

// SelfSigned creates a self-signed root certificate for the given scheme.
func SelfSigned(subject string, scheme sig.Scheme, rng io.Reader) (*Certificate, []byte, error) {
	pub, priv, err := scheme.GenerateKey(rng)
	if err != nil {
		return nil, nil, err
	}
	cert := &Certificate{
		Serial:    1,
		Subject:   subject,
		Issuer:    subject,
		Algorithm: scheme.Name(),
		SigAlg:    scheme.Name(),
		PublicKey: pub,
	}
	cert.Signature, err = scheme.Sign(priv, cert.tbsBytes())
	if err != nil {
		return nil, nil, err
	}
	return cert, priv, nil
}

// Issue creates a certificate for subjectPub signed by the issuer.
func Issue(serial uint64, subject string, subjectAlg string, subjectPub []byte,
	issuer *Certificate, issuerPriv []byte) (*Certificate, error) {
	scheme, err := sig.ByName(issuer.Algorithm)
	if err != nil {
		return nil, err
	}
	cert := &Certificate{
		Serial:    serial,
		Subject:   subject,
		Issuer:    issuer.Subject,
		Algorithm: subjectAlg,
		SigAlg:    scheme.Name(),
		PublicKey: subjectPub,
	}
	cert.Signature, err = scheme.Sign(issuerPriv, cert.tbsBytes())
	if err != nil {
		return nil, err
	}
	return cert, nil
}

// Verify checks a presented chain: every certificate must be signed by its
// successor (or by a pool root for the last one), and signatures must be
// valid. It returns the leaf on success.
func (p *Pool) Verify(chain []*Certificate) (*Certificate, error) {
	if len(chain) == 0 {
		return nil, ErrEmptyChain
	}
	for i, cert := range chain {
		var issuerCert *Certificate
		if i+1 < len(chain) {
			issuerCert = chain[i+1]
		} else {
			root, ok := p.roots[cert.Issuer]
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrUnknownRoot, cert.Issuer)
			}
			issuerCert = root
		}
		scheme, err := sig.ByName(cert.SigAlg)
		if err != nil {
			return nil, err
		}
		if scheme.Name() != issuerCert.Algorithm {
			return nil, fmt.Errorf("pki: certificate %q signed with %s but issuer key is %s",
				cert.Subject, cert.SigAlg, issuerCert.Algorithm)
		}
		if !scheme.Verify(issuerCert.PublicKey, cert.tbsBytes(), cert.Signature) {
			return nil, fmt.Errorf("%w: %q", ErrBadSignature, cert.Subject)
		}
	}
	return chain[0], nil
}

func writeStr(b *bytes.Buffer, s string) {
	if len(s) > 0xFFFF {
		panic("pki: string too long")
	}
	b.WriteByte(byte(len(s) >> 8))
	b.WriteByte(byte(len(s)))
	b.WriteString(s)
}

func readStr(r *bytes.Reader) (string, error) {
	b, err := readN(r, 2)
	if err != nil {
		return "", err
	}
	v, err := readN(r, int(b[0])<<8|int(b[1]))
	if err != nil {
		return "", err
	}
	return string(v), nil
}

func writeBytes(b *bytes.Buffer, v []byte) {
	if len(v) > 0xFFFFFF {
		panic("pki: value too long")
	}
	b.WriteByte(byte(len(v) >> 16))
	b.WriteByte(byte(len(v) >> 8))
	b.WriteByte(byte(len(v)))
	b.Write(v)
}

func readBytes(r *bytes.Reader) ([]byte, error) {
	b, err := readN(r, 3)
	if err != nil {
		return nil, err
	}
	return readN(r, int(b[0])<<16|int(b[1])<<8|int(b[2]))
}

// readN reads an n-byte field. The claimed length is checked against the
// bytes left before anything is allocated, so a truncated certificate that
// declares a 16 MiB field costs nothing.
func readN(r *bytes.Reader, n int) ([]byte, error) {
	if n > r.Len() {
		return nil, fmt.Errorf("pki: truncated field: want %d bytes, %d left", n, r.Len())
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("pki: truncated field: %w", err)
	}
	return out, nil
}
