package tls13

import (
	"fmt"
	"io"
	"strings"
)

// TLS alert descriptions (RFC 8446 §6) used by this stack.
const (
	AlertCloseNotify       uint8 = 0
	AlertUnexpectedMessage uint8 = 10
	AlertBadRecordMAC      uint8 = 20
	AlertRecordOverflow    uint8 = 22
	AlertHandshakeFailure  uint8 = 40
	AlertBadCertificate    uint8 = 42
	AlertUnknownCA         uint8 = 48
	AlertIllegalParameter  uint8 = 47
	AlertDecryptError      uint8 = 51
	AlertProtocolVersion   uint8 = 70
	AlertInternalError     uint8 = 80
)

// alertNames renders descriptions for diagnostics.
var alertNames = map[uint8]string{
	AlertCloseNotify:       "close_notify",
	AlertUnexpectedMessage: "unexpected_message",
	AlertBadRecordMAC:      "bad_record_mac",
	AlertRecordOverflow:    "record_overflow",
	AlertHandshakeFailure:  "handshake_failure",
	AlertBadCertificate:    "bad_certificate",
	AlertUnknownCA:         "unknown_ca",
	AlertIllegalParameter:  "illegal_parameter",
	AlertDecryptError:      "decrypt_error",
	AlertProtocolVersion:   "protocol_version",
	AlertInternalError:     "internal_error",
}

// FatalAlert builds the plaintext record an endpoint sends before tearing
// down a failed handshake.
func FatalAlert(desc uint8) Record {
	return Record{Type: RecordAlert, Payload: []byte{2 /* fatal */, desc}}
}

// AlertError is returned when the peer aborted the handshake with an alert.
type AlertError struct {
	Level       uint8
	Description uint8
}

// Error names the alert ("remote alert: bad_certificate (42)").
func (e *AlertError) Error() string {
	name, ok := alertNames[e.Description]
	if !ok {
		name = "unknown"
	}
	return fmt.Sprintf("tls13: remote alert: %s (%d)", name, e.Description)
}

// parseAlert interprets an alert record.
func parseAlert(rec Record) error {
	if len(rec.Payload) < 2 {
		return fmt.Errorf("tls13: malformed alert record")
	}
	return &AlertError{Level: rec.Payload[0], Description: rec.Payload[1]}
}

// alertFor maps a local handshake failure to the alert description the
// endpoint should send (RFC 8446 §6.2).
func alertFor(err error) uint8 {
	if err == nil {
		return AlertCloseNotify
	}
	msg := err.Error()
	switch {
	case contains(msg, "record_overflow"):
		return AlertRecordOverflow
	case contains(msg, "certificate"):
		return AlertBadCertificate
	case contains(msg, "record decryption failed"):
		return AlertBadRecordMAC
	case contains(msg, "Finished verification"):
		return AlertDecryptError
	case contains(msg, "group"), contains(msg, "sigalg"), contains(msg, "suite"):
		return AlertHandshakeFailure
	case contains(msg, "unexpected"), contains(msg, "expected"):
		return AlertUnexpectedMessage
	default:
		return AlertInternalError
	}
}

// sendAlert writes the fatal alert for a local handshake failure. A failure
// that is itself the peer's alert is not answered. The write is best effort:
// the handshake has failed either way.
func sendAlert(w io.Writer, err error) {
	if _, remote := err.(*AlertError); !remote {
		WriteRecords(w, []Record{FatalAlert(alertFor(err))})
	}
}

func contains(haystack, needle string) bool {
	return strings.Contains(haystack, needle)
}
