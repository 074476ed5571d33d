package tls13

import (
	"encoding/binary"
	"fmt"
	"io"
)

// This file adapts the sans-IO state machines to real byte streams
// (net.Conn, net.Pipe), the mode used by the cmd/ binaries and integration
// tests. The measurement harness drives the state machines directly through
// the discrete-event simulation instead.

// WriteRecords marshals records to the stream.
func WriteRecords(w io.Writer, records []Record) error {
	for _, rec := range records {
		if _, err := w.Write(rec.Marshal()); err != nil {
			return fmt.Errorf("tls13: writing record: %w", err)
		}
	}
	return nil
}

// ReadRecord reads exactly one record from the stream. A header declaring
// more than 2^14+256 body bytes is rejected before anything is allocated.
func ReadRecord(r io.Reader) (Record, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Record{}, fmt.Errorf("tls13: reading record header: %w", err)
	}
	n := int(binary.BigEndian.Uint16(hdr[3:]))
	if n > maxRecordWire {
		return Record{}, fmt.Errorf("tls13: record_overflow: record declares %d bytes, limit %d", n, maxRecordWire)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Record{}, fmt.Errorf("tls13: reading record body: %w", err)
	}
	return Record{Type: hdr[0], Payload: payload}, nil
}

// ClientHandshake performs a full client handshake over conn. On a local
// handshake failure a fatal alert is sent before returning the error.
func ClientHandshake(conn io.ReadWriter, cfg *Config) (*Client, error) {
	c, err := NewClient(cfg)
	if err != nil {
		return nil, err
	}
	flight, err := c.Start()
	if err != nil {
		return nil, err
	}
	if err := WriteRecords(conn, flight); err != nil {
		return nil, err
	}
	for {
		rec, err := ReadRecord(conn)
		if err != nil {
			return nil, err
		}
		out, done, err := c.Consume([]Record{rec})
		if err != nil {
			if _, isAlert := err.(*AlertError); !isAlert {
				// Send the alert without blocking the error return: on an
				// unbuffered transport (net.Pipe) the peer may still be
				// mid-flight and not yet reading.
				alert := FatalAlert(alertFor(err))
				go WriteRecords(conn, []Record{alert})
			}
			return nil, err
		}
		if len(out) > 0 {
			// Either the final flight or a HelloRetryRequest retry.
			if err := WriteRecords(conn, out); err != nil {
				return nil, err
			}
		}
		if done {
			c.done = true
			return c, nil
		}
	}
}

// ServerHandshake performs a full server handshake over conn.
func ServerHandshake(conn io.ReadWriter, cfg *Config) (*Server, error) {
	s, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	// Read the ClientHello (may span multiple handshake records).
	var chRecords []Record
	for {
		rec, err := ReadRecord(conn)
		if err != nil {
			return nil, err
		}
		if rec.Type != RecordHandshake {
			return nil, fmt.Errorf("tls13: expected handshake record, got type %d", rec.Type)
		}
		chRecords = append(chRecords, rec)
		if completeHandshakeMessage(chRecords) {
			break
		}
	}
	flushes, err := s.Respond(chRecords)
	if err != nil {
		WriteRecords(conn, []Record{FatalAlert(alertFor(err))})
		return nil, err
	}
	for _, f := range flushes {
		if err := WriteRecords(conn, f.Records); err != nil {
			return nil, err
		}
	}
	if s.hrrSent && len(flushes) == 1 {
		// HelloRetryRequest sent; read the retried ClientHello and respond
		// again.
		chRecords = chRecords[:0]
		for {
			rec, err := ReadRecord(conn)
			if err != nil {
				return nil, err
			}
			if rec.Type != RecordHandshake {
				return nil, fmt.Errorf("tls13: expected retried ClientHello, got type %d", rec.Type)
			}
			chRecords = append(chRecords, rec)
			if completeHandshakeMessage(chRecords) {
				break
			}
		}
		flushes, err = s.Respond(chRecords)
		if err != nil {
			return nil, err
		}
		for _, f := range flushes {
			if err := WriteRecords(conn, f.Records); err != nil {
				return nil, err
			}
		}
	}
	// Read the client's CCS + Finished.
	var clientFlight []Record
	for {
		rec, err := ReadRecord(conn)
		if err != nil {
			return nil, err
		}
		clientFlight = append(clientFlight, rec)
		if rec.Type == RecordApplicationData || rec.Type == RecordAlert {
			break
		}
	}
	if err := s.Finish(clientFlight); err != nil {
		return nil, err
	}
	return s, nil
}

// completeHandshakeMessage reports whether the concatenated handshake
// records contain at least one complete message.
func completeHandshakeMessage(records []Record) bool {
	var total, want int
	for i, rec := range records {
		if i == 0 {
			if len(rec.Payload) < 4 {
				return false
			}
			want = 4 + (int(rec.Payload[1])<<16 | int(rec.Payload[2])<<8 | int(rec.Payload[3]))
		}
		total += len(rec.Payload)
	}
	return total >= want
}
