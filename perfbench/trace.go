package main

import (
	"sync"
	"sync/atomic"
	"time"

	"pqtls/internal/tls13"
)

// This file holds the benchmark's tracing: tls13.Hooks implementations that
// time the handshake phases and library spans from outside the program. A
// phase's self time is its duration minus the part its child phases cover;
// the sum of self times over all phases is the time some phase was open.

// phaseAgg accumulates one endpoint's phase and library-span time. dur is
// the time per phase: self time on the client, whole duration on the
// server (see serverTrace).
type phaseAgg struct {
	dur   map[string]time.Duration
	count map[string]int
	lib   map[string]time.Duration
}

func newPhaseAgg() *phaseAgg {
	return &phaseAgg{
		dur:   map[string]time.Duration{},
		count: map[string]int{},
		lib:   map[string]time.Duration{},
	}
}

func (a *phaseAgg) addPhase(name string, d time.Duration) {
	a.dur[name] += d
	a.count[name]++
}

// merge adds b into a.
func (a *phaseAgg) merge(b *phaseAgg) {
	for k, v := range b.dur {
		a.dur[k] += v
	}
	for k, v := range b.count {
		a.count[k] += v
	}
	for k, v := range b.lib {
		a.lib[k] += v
	}
}

// minus returns a − b, for deltas between two snapshots of one aggregate.
func (a *phaseAgg) minus(b *phaseAgg) *phaseAgg {
	out := newPhaseAgg()
	out.merge(a)
	for k, v := range b.dur {
		out.dur[k] -= v
	}
	for k, v := range b.count {
		out.count[k] -= v
	}
	for k, v := range b.lib {
		out.lib[k] -= v
	}
	return out
}

// covered is the total phase self time: the time some phase was open.
func (a *phaseAgg) covered() time.Duration {
	var t time.Duration
	for _, v := range a.dur {
		t += v
	}
	return t
}

// frame is one open phase.
type frame struct {
	name  string
	start time.Time
	child time.Duration // time covered by closed child phases
}

// phaseStack tracks the open phases of one handshake, which nest strictly
// on the goroutine running it.
type phaseStack struct{ open []*frame }

func (s *phaseStack) push(name string, now time.Time) *frame {
	f := &frame{name: name, start: now}
	s.open = append(s.open, f)
	return f
}

// pop closes f. Phases opened above f and never closed were abandoned on an
// error path; they are discarded and their time stays in f's self time. A
// frame that is no longer open (closed twice, or discarded) reports ok=false.
func (s *phaseStack) pop(f *frame, now time.Time) (dur, self time.Duration, ok bool) {
	i := len(s.open) - 1
	for i >= 0 && s.open[i] != f {
		i--
	}
	if i < 0 {
		return 0, 0, false
	}
	s.open = s.open[:i]
	dur = now.Sub(f.start)
	self = dur - f.child
	if i > 0 {
		s.open[i-1].child += dur
	}
	return dur, self, true
}

// spanRec is one client phase as written to the span file.
type spanRec struct {
	Sample  int     `json:"sample"`
	Phase   string  `json:"phase"`
	Depth   int     `json:"depth"`
	StartUS float64 `json:"start_us"` // from the arrival's due time
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"`
}

// clientTrace is the hooks value of one client handshake. Its spans carry
// the sample id; it is used from the handshake's goroutine only.
type clientTrace struct {
	sample int
	origin time.Time // the arrival's due time
	st     phaseStack
	agg    *phaseAgg
	spans  []spanRec
}

func newClientTrace(sample int, origin time.Time) *clientTrace {
	return &clientTrace{sample: sample, origin: origin, agg: newPhaseAgg()}
}

func (c *clientTrace) Phase(name string) func() {
	f := c.st.push(name, time.Now())
	depth := len(c.st.open) - 1
	return func() {
		dur, self, ok := c.st.pop(f, time.Now())
		if !ok {
			return
		}
		c.agg.addPhase(name, self)
		c.spans = append(c.spans, spanRec{
			Sample: c.sample, Phase: name, Depth: depth,
			StartUS: us(f.start.Sub(c.origin)), DurUS: us(dur), SelfUS: us(self),
		})
	}
}

func (c *clientTrace) Span(lib string) func() {
	start := time.Now()
	closed := false
	return func() {
		if !closed {
			closed = true
			c.agg.lib[lib] += time.Since(start)
		}
	}
}

func (c *clientTrace) Charge(op, alg string) {}

// serverTrace is the hooks value installed on the shared server config. It
// is called concurrently from every connection's goroutine and carries no
// connection identity, so it cannot nest phases: it records each phase's
// whole duration. Recording is
// switched on and off between measurement blocks; while off, it costs one
// atomic load.
type serverTrace struct {
	on atomic.Bool

	mu     sync.Mutex
	agg    *phaseAgg
	signUS []float64 // CertificateVerify sign time per handshake, µs
}

// serverTopLevel are the server phases no other server phase encloses.
// Record protection (record-read, record-write) runs inside them, apart
// from the EncryptedExtensions seal, which no phase encloses. Summing these
// counts every phased moment of a server handshake once.
// TestServerPhaseNesting pins this against a single-connection run.
var serverTopLevel = []string{
	tls13.PhaseCHParse, tls13.PhaseTicketRedeem, tls13.PhaseKEMEncap,
	tls13.PhaseServerHello, tls13.PhaseCertWrite, tls13.PhaseCVSign,
	tls13.PhaseFinSend, tls13.PhaseFinVerify, tls13.PhaseTicketIssue,
}

func newServerTrace() *serverTrace {
	return &serverTrace{agg: newPhaseAgg()}
}

func nop() {}

func (s *serverTrace) Phase(name string) func() {
	if !s.on.Load() {
		return nop
	}
	start := time.Now()
	closed := false
	return func() {
		if closed {
			return
		}
		closed = true
		d := time.Since(start)
		s.mu.Lock()
		defer s.mu.Unlock()
		s.agg.addPhase(name, d)
		if name == tls13.PhaseCVSign {
			s.signUS = append(s.signUS, us(d))
		}
	}
}

func (s *serverTrace) Span(lib string) func() {
	if !s.on.Load() {
		return nop
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		s.mu.Lock()
		s.agg.lib[lib] += d
		s.mu.Unlock()
	}
}

func (s *serverTrace) Charge(op, alg string) {}

// snapshot copies the aggregate so far.
func (s *serverTrace) snapshot() *phaseAgg {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := newPhaseAgg()
	out.merge(s.agg)
	return out
}

// signSamples copies the per-handshake sign times so far.
func (s *serverTrace) signSamples() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.signUS...)
}
