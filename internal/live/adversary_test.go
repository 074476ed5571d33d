package live_test

import (
	"net"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"pqtls/internal/live"
	"pqtls/internal/tls13"
)

// Adversarial peers against a running live.Serve. Each test checks that the
// runtime rejects or times out the connection with the right failure class,
// and that its goroutines return to the baseline afterwards.

// adversaryTimeout is long enough that a rejection "well before the
// deadline" is unambiguous, and short enough that a stall at the parent of
// a fix fails the test quickly.
const adversaryTimeout = 4 * time.Second

// waitFailed polls the runtime's counters until n failures of class are
// recorded or the handshake timeout passes, and returns how long it took.
func waitFailed(t *testing.T, srv *live.Server, class string, n uint64) time.Duration {
	t.Helper()
	start := time.Now()
	for time.Since(start) < adversaryTimeout+2*time.Second {
		if srv.Counters().Failed[class] >= n {
			return time.Since(start)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s failures %v, want %d", class, srv.Counters().Failed, n)
	return 0
}

// checkNoLeak shuts the runtime down and waits for the goroutine count to
// return to base.
func checkNoLeak(t *testing.T, srv *live.Server, base int) {
	t.Helper()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d after shutdown, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// liveHeap is the heap held by objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func dial(t *testing.T, srv *live.Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn.SetDeadline(time.Now().Add(2 * adversaryTimeout))
	return conn
}

// A ClientHello declaring 16 MiB is refused from its header: every
// connection fails as a protocol error long before the deadline, and the
// heap the server holds stays within its ClientHello cap per connection
// although each peer keeps sending.
func TestAdversaryOversizedClientHello(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, _ := startServer(t, "x25519", "ecdsa-p256", live.Options{HandshakeTimeout: adversaryTimeout})
	const conns = 8
	chunk := tls13.Record{Type: tls13.RecordHandshake, Payload: make([]byte, 16384)}.Marshal()
	heap0 := liveHeap()
	var wg sync.WaitGroup
	var open []net.Conn
	for i := 0; i < conns; i++ {
		conn := dial(t, srv)
		open = append(open, conn)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Record header, then a ClientHello header declaring 2^24-1 bytes.
			conn.Write([]byte{tls13.RecordHandshake, 3, 3, 0, 4, 1, 0xff, 0xff, 0xff})
			for j := 0; j < 16; j++ { // 256 KiB more, if the server keeps reading
				if _, err := conn.Write(chunk); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	// Read the heap while the connections are still open: what the server
	// holds for them now is what the attack made it buffer.
	grew := int64(liveHeap()) - int64(heap0)
	took := waitFailed(t, srv, live.ClassProtocol, conns)
	if took > adversaryTimeout/4 {
		t.Errorf("oversized ClientHellos rejected after %v, deadline %v", took, adversaryTimeout)
	}
	if limit := int64(tls13.ClientHelloLimit() * conns); grew > limit {
		t.Errorf("heap grew %d bytes over %d connections, cap allows %d", grew, conns, limit)
	}
	for _, conn := range open {
		conn.Close()
	}
	checkNoLeak(t, srv, base)
}

// A zero-length handshake record is rejected at once (RFC 8446 §5.1), not
// accepted while the peer floods more of them.
func TestAdversaryZeroLengthRecords(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, _ := startServer(t, "x25519", "ecdsa-p256", live.Options{HandshakeTimeout: adversaryTimeout})
	conn := dial(t, srv)
	defer conn.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if _, err := conn.Write([]byte{tls13.RecordHandshake, 3, 3, 0, 0}); err != nil {
				return
			}
		}
	}()
	if took := waitFailed(t, srv, live.ClassProtocol, 1); took > adversaryTimeout/4 {
		t.Errorf("zero-length records rejected after %v, deadline %v", took, adversaryTimeout)
	}
	conn.Close()
	<-done
	checkNoLeak(t, srv, base)
}

// A ClientHello sent as 1-byte records, its handshake header split across
// four of them, completes the handshake.
func TestAdversaryOneByteRecords(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, cliCfg := startServer(t, "x25519", "ecdsa-p256", live.Options{HandshakeTimeout: adversaryTimeout})
	conn := dial(t, srv)
	defer conn.Close()
	cli, err := tls13.NewClient(cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	var frags []tls13.Record
	for _, b := range ch[0].Payload {
		frags = append(frags, tls13.Record{Type: tls13.RecordHandshake, Payload: []byte{b}})
	}
	if err := tls13.WriteRecords(conn, frags); err != nil {
		t.Fatal(err)
	}
	for !cli.Done() {
		rec, err := tls13.ReadRecord(conn)
		if err != nil {
			t.Fatalf("client read: %v", err)
		}
		out, _, err := cli.Consume([]tls13.Record{rec})
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		if err := tls13.WriteRecords(conn, out); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	checkNoLeak(t, srv, base)
	if c := srv.Counters(); c.Completed != 1 || c.FailedTotal() != 0 {
		t.Errorf("completed %d, failed %v; want one clean handshake", c.Completed, c.Failed)
	}
}

// A peer dripping a valid ClientHello one byte at a time is cut off by the
// handshake deadline and classified as a timeout.
func TestAdversarySlowDrip(t *testing.T) {
	base := runtime.NumGoroutine()
	const timeout = 300 * time.Millisecond
	srv, cliCfg := startServer(t, "x25519", "ecdsa-p256", live.Options{HandshakeTimeout: timeout})
	conn := dial(t, srv)
	defer conn.Close()
	cli, err := tls13.NewClient(cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cli.Start()
	if err != nil {
		t.Fatal(err)
	}
	wire := ch[0].Marshal()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, b := range wire {
			if _, err := conn.Write([]byte{b}); err != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	waitFailed(t, srv, live.ClassTimeout, 1)
	conn.Close()
	<-done
	checkNoLeak(t, srv, base)
}
