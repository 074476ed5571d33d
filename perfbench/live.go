package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/tls13"
)

const (
	serverName = "server.example"
	// primeCount full handshakes finish set-up: they warm the lazy tables
	// and connection paths, and their tickets are the ones resume-pq
	// redeems.
	primeCount = 16
	hsTimeout  = 5 * time.Second
)

// liveSpec is one live loopback workload. Both ends run in this process
// and share its cores.
type liveSpec struct {
	name     string
	kem, sig string
	resume   bool    // measured handshakes resume from primed tickets
	rate     float64 // open-loop arrivals per second
}

// The open-loop rates sit well below the knee: a lone handshake cannot use
// both cores, so two connection slots saturate long before the closed-loop
// rate, and near the knee the latency is queueing that swings with every
// burst of outside load.
var (
	// About 20% of the ~470 hs/s two closed-loop connections reach.
	fullPQ = liveSpec{name: "full-pq", kem: "kyber768", sig: "dilithium3", rate: 100}
	// About 25% of the ~1550 hs/s two closed-loop connections reach.
	resumePQ = liveSpec{name: "resume-pq", kem: "kyber768", sig: "dilithium3", resume: true, rate: 400}
)

var errNotResumed = errors.New("resumption fell back to a full handshake")

// readerPool recycles the client's buffered readers: a server flight is
// several records, and one buffer saves a read per record header.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4096) }}

// liveEnv is a running server plus the client state shared by the loops.
type liveEnv struct {
	spec     liveSpec
	srv      *live.Server
	addr     string
	cliCfg   tls13.Config
	sessions []*tls13.Session
	srvTrace *serverTrace // nil on untraced runs

	completed atomic.Int64 // client handshakes that wrote their Finished
	tickets   atomic.Int64 // NewSessionTickets the client processed
	sampleID  atomic.Int64

	mu     sync.Mutex
	cliAgg *phaseAgg  // traced client phases of completed handshakes
	spans  []spanRec  // traced client spans
	hs     []hsTiming // traced client handshakes
}

// setupLive builds the credentials, starts the server on a loopback
// listener and runs the priming handshakes. It is what setup_s times.
func setupLive(spec liveSpec, traced bool) (*liveEnv, error) {
	creds, err := harness.CredentialsFor(spec.sig, 1)
	if err != nil {
		return nil, fmt.Errorf("credentials: %w", err)
	}
	srvCfg := &tls13.Config{
		KEMName: spec.kem, SigName: spec.sig, ServerName: serverName,
		Chain: creds.Chain, PrivateKey: creds.Priv,
		Buffer: tls13.BufferImmediate,
	}
	e := &liveEnv{
		spec:   spec,
		cliCfg: tls13.Config{KEMName: spec.kem, SigName: spec.sig, ServerName: serverName, Roots: creds.Roots},
		cliAgg: newPhaseAgg(),
	}
	if traced {
		e.srvTrace = newServerTrace()
		srvCfg.Hooks = e.srvTrace
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.srv, err = live.Serve(ln, live.Options{
		Config:           srvCfg,
		MaxConns:         64,
		HandshakeTimeout: hsTimeout,
		IssueTickets:     true,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	e.addr = e.srv.Addr().String()
	for i := 0; i < primeCount; i++ {
		_, sess, err := e.handshake(nil, nil)
		if err != nil {
			e.srv.Shutdown(time.Second)
			return nil, fmt.Errorf("priming handshake %d: %w", i, err)
		}
		e.sessions = append(e.sessions, sess)
	}
	return e, nil
}

// session returns the ticket the n-th measured handshake presents, or nil
// for a full handshake.
func (e *liveEnv) session(n int) *tls13.Session {
	if !e.spec.resume {
		return nil
	}
	return e.sessions[n%len(e.sessions)]
}

// hsTiming is the benchmark client's own timing of one handshake.
type hsTiming struct {
	Sample    int     `json:"sample"`
	LatencyUS float64 `json:"latency_us"` // from due time (open loop) or start (closed loop)
	DialUS    float64 `json:"dial_us"`
	WaitUS    float64 `json:"flight_wait_us"`
	SpanUS    float64 `json:"span_us"`    // Start to Finished written
	CoveredUS float64 `json:"covered_us"` // phase self time inside the span, waits included

	end time.Time
}

// handshake runs one handshake over a fresh connection: a full one with
// sess nil, otherwise a psk_dhe_ke resumption. A full handshake also reads
// and processes the ticket the server issues after it. tr, when non-nil,
// is installed as the client's hooks.
func (e *liveEnv) handshake(sess *tls13.Session, tr *clientTrace) (hsTiming, *tls13.Session, error) {
	var t hsTiming
	t0 := time.Now()
	conn, err := net.DialTimeout("tcp", e.addr, hsTimeout)
	t.DialUS = us(time.Since(t0))
	if err != nil {
		return t, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(hsTimeout))
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil)
		readerPool.Put(br)
	}()

	cfg := e.cliCfg
	cfg.Session = sess
	if tr != nil {
		cfg.Hooks = tr
	}
	start := time.Now()
	cli, err := tls13.NewClient(&cfg)
	if err != nil {
		return t, nil, err
	}
	flight, err := cli.Start()
	if err != nil {
		return t, nil, err
	}
	if err := tls13.WriteRecords(conn, flight); err != nil {
		return t, nil, err
	}
	for done := false; !done; {
		endWait := nop
		if tr != nil {
			endWait = tr.Phase(tls13.PhaseFlightWait)
		}
		w0 := time.Now()
		rec, err := tls13.ReadRecord(br)
		t.WaitUS += us(time.Since(w0))
		endWait()
		if err != nil {
			return t, nil, err
		}
		var out []tls13.Record
		out, done, err = cli.Consume([]tls13.Record{rec})
		if err != nil {
			return t, nil, err
		}
		if err := tls13.WriteRecords(conn, out); err != nil {
			return t, nil, err
		}
	}
	t.end = time.Now()
	t.SpanUS = us(t.end.Sub(start))
	if tr != nil {
		t.CoveredUS = us(tr.agg.covered())
	}
	e.completed.Add(1)
	// A resumed client never sees a certificate.
	resumed := cli.ServerCert == nil
	switch {
	case sess != nil && !resumed:
		return t, nil, errNotResumed
	case sess == nil && resumed:
		return t, nil, errors.New("full handshake completed without a server certificate")
	case sess != nil:
		return t, nil, nil
	}
	rec, err := tls13.ReadRecord(br)
	if err != nil {
		return t, nil, fmt.Errorf("reading NewSessionTicket: %w", err)
	}
	ns, err := cli.ProcessTicket([]tls13.Record{rec})
	if err != nil {
		return t, nil, fmt.Errorf("processing NewSessionTicket: %w", err)
	}
	e.tickets.Add(1)
	return t, ns, nil
}

// tracedHandshake runs a handshake with client hooks and keeps its spans
// when it completes; origin is the instant latency is timed from.
func (e *liveEnv) tracedHandshake(sess *tls13.Session, origin time.Time) (hsTiming, error) {
	tr := newClientTrace(int(e.sampleID.Add(1)), origin)
	t, _, err := e.handshake(sess, tr)
	if err != nil {
		return t, err
	}
	t.Sample = tr.sample
	t.LatencyUS = us(t.end.Sub(origin))
	e.mu.Lock()
	e.cliAgg.merge(tr.agg)
	e.spans = append(e.spans, tr.spans...)
	e.hs = append(e.hs, t)
	e.mu.Unlock()
	return t, nil
}

// clientSnapshot copies the client aggregate and handshake count so far.
func (e *liveEnv) clientSnapshot() (*phaseAgg, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := newPhaseAgg()
	out.merge(e.cliAgg)
	return out, len(e.hs)
}

// open runs the open loop over offsets; traced runs hook every handshake.
func (e *liveEnv) open(offsets []time.Duration, slots int, traced bool) []arrival {
	return openLoop(offsets, slots, func(i int, due time.Time) (time.Time, error) {
		if traced {
			t, err := e.tracedHandshake(e.session(i), due)
			return t.end, err
		}
		t, _, err := e.handshake(e.session(i), nil)
		return t.end, err
	})
}

// closed runs the closed loop for dur over slots connections.
func (e *liveEnv) closed(slots int, dur time.Duration, traced bool) (completed, failed int, elapsed time.Duration) {
	iter := make([]int, slots) // per worker; each worker touches only its own
	return closedLoop(slots, dur, func(w int) error {
		sess := e.session(w + iter[w]*slots)
		iter[w]++
		if traced {
			_, err := e.tracedHandshake(sess, time.Now())
			return err
		}
		_, _, err := e.handshake(sess, nil)
		return err
	})
}

// shutdown stops the server, waiting for in-flight handshakes.
func (e *liveEnv) shutdown() error { return e.srv.Shutdown(hsTimeout) }
