package tls13

import (
	"encoding/binary"
	"fmt"
	"io"
)

// This file drives the sans-IO state machines end to end: over real byte
// streams (net.Conn, net.Pipe), the mode used by the cmd/ binaries and
// integration tests, and in memory with no transport at all. The
// measurement harness drives the state machines directly through the
// discrete-event simulation instead.

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
	for !c.done {
		rec, err := ReadRecord(conn)
		if err == nil {
			// Either the final flight or a HelloRetryRequest retry.
			flight, _, err = c.Consume([]Record{rec})
		}
		if err == nil {
			err = WriteRecords(conn, flight)
		}
		if err != nil {
			// Send the alert without blocking the error return: on an
			// unbuffered transport (net.Pipe) the peer may still be
			// mid-flight and not yet reading.
			go sendAlert(conn, err)
			return nil, err
		}
	}
	return c, nil
}

// ServerHandshake performs a full server handshake over conn: one loop
// reads client records until the client Finished verifies, answering each
// ClientHello (the first, and the retry after a HelloRetryRequest) as it
// completes. On a local failure a fatal alert is sent before returning the
// error.
func ServerHandshake(conn io.ReadWriter, cfg *Config) (*Server, error) {
	s, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	for !s.done {
		rec, err := ReadRecord(conn)
		var flushes []Flush
		if err == nil {
			flushes, err = s.consume(rec)
		}
		for _, f := range flushes {
			if err == nil {
				err = WriteRecords(conn, f.Records)
			}
		}
		if err != nil {
			// The client writes a flight, then reads: the alert goes out
			// before the connection closes.
			sendAlert(conn, err)
			return nil, err
		}
	}
	return s, nil
}

// InMemoryHandshake runs a complete handshake between a new client and a new
// server with no transport: the client's flight goes to Respond, every
// server flush to Consume in order, and the final flight to Finish. A
// HelloRetryRequest round is followed the same way.
func InMemoryHandshake(clientCfg, serverCfg *Config) (*Client, *Server, error) {
	cli, err := NewClient(clientCfg)
	if err != nil {
		return nil, nil, err
	}
	srv, err := NewServer(serverCfg)
	if err != nil {
		return nil, nil, err
	}
	flight, err := cli.Start()
	if err != nil {
		return nil, nil, err
	}
	for !cli.Done() {
		flushes, err := srv.Respond(flight)
		if err != nil {
			return nil, nil, err
		}
		flight = nil
		for _, f := range flushes {
			out, _, err := cli.Consume(f.Records)
			if err != nil {
				return nil, nil, err
			}
			if out != nil {
				flight = out
			}
		}
	}
	if err := srv.Finish(flight); err != nil {
		return nil, nil, err
	}
	return cli, srv, nil
}
