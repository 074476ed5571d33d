package harness

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pqtls/internal/kem"
	"pqtls/internal/tls13"
)

// KeyPool holds pre-generated client KEM key pairs. Campaigns with many
// samples of the same suite spend a large share of their real compute on
// ephemeral keygen (BIKE's ring inversion, Falcon-free suites still pay
// Kyber/HQC keygen per sample); a pool generates them up front across the
// worker pool and hands one out per handshake. Latency results are
// unchanged — the modeled keygen cost is charged to the virtual clock
// whether or not the key came from the pool.
//
// Beyond the one-shot Fill, StartFactory turns the pool into an async
// precompute subsystem: a background goroutine per suite keeps the pool
// between a low watermark and a target level, generating up to
// factoryBatch keys per refill step. Get never blocks — a drained pool
// returns nil and the handshake generates its key inline while the factory
// refills behind it.
type KeyPool struct {
	mu sync.Mutex
	m  map[string][]*tls13.KeyShare

	hits, misses atomic.Uint64

	factory *factory // nil unless StartFactory is running
}

// NewKeyPool returns an empty pool.
func NewKeyPool() *KeyPool {
	return &KeyPool{m: map[string][]*tls13.KeyShare{}}
}

// Fill pre-generates n key pairs for kemName using up to workers goroutines.
func (p *KeyPool) Fill(kemName string, n, workers int) error {
	k, err := kem.ByName(kemName)
	if err != nil {
		return err
	}
	shares := make([]*tls13.KeyShare, n)
	if err := forEach(n, workers, func(i int) error {
		pub, priv, err := k.GenerateKey(nil)
		if err != nil {
			return err
		}
		shares[i] = &tls13.KeyShare{Pub: pub, Priv: priv}
		return nil
	}); err != nil {
		return err
	}
	p.mu.Lock()
	p.m[kemName] = append(p.m[kemName], shares...)
	p.mu.Unlock()
	return nil
}

// Get pops a pre-generated key pair for kemName, or returns nil when the
// pool has none left (the handshake then generates one itself). Each pair
// is handed out exactly once. When a factory is running and the suite's
// level falls below the low watermark, Get nudges the factory awake; it
// never waits for the refill.
func (p *KeyPool) Get(kemName string) *tls13.KeyShare {
	p.mu.Lock()
	shares := p.m[kemName]
	if len(shares) == 0 {
		f := p.factory
		p.mu.Unlock()
		p.misses.Add(1)
		if f != nil {
			f.nudge(kemName)
		}
		return nil
	}
	ks := shares[len(shares)-1]
	p.m[kemName] = shares[:len(shares)-1]
	left := len(shares) - 1
	f := p.factory
	p.mu.Unlock()
	p.hits.Add(1)
	if f != nil && left < f.low {
		f.nudge(kemName)
	}
	return ks
}

// Len reports how many pairs remain pooled for kemName.
func (p *KeyPool) Len(kemName string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.m[kemName])
}

// FactoryOptions configures the background key-share factory.
type FactoryOptions struct {
	// Suites are the KEM names to keep warm.
	Suites []string
	// Target is the per-suite pool level the factory refills to (default 64).
	Target int
	// LowWater is the level that triggers a refill (default Target/4).
	LowWater int
}

// factoryBatch is the most key pairs a refill step generates before it
// publishes them to the pool and checks for shutdown.
const factoryBatch = 32

// FactoryStats is a snapshot of the factory and pool counters.
type FactoryStats struct {
	// Generated counts key pairs produced by the factory; Batches counts
	// the refill steps that produced them.
	Generated, Batches uint64
	// Hits counts Get calls served from the pool; Misses counts Get calls
	// that found it empty (inline keygen fallback).
	Hits, Misses uint64
}

// factory is the running state of the background refiller.
type factory struct {
	stop chan struct{}
	wg   sync.WaitGroup
	wake map[string]chan struct{}
	low  int

	generated, batches atomic.Uint64

	errMu    sync.Mutex
	firstErr error // first keygen error, if any
}

func (f *factory) recordErr(err error) {
	f.errMu.Lock()
	if f.firstErr == nil {
		f.firstErr = err
	}
	f.errMu.Unlock()
}

// nudge wakes the suite's refill goroutine without blocking.
func (f *factory) nudge(kemName string) {
	ch, ok := f.wake[kemName]
	if !ok {
		return
	}
	select {
	case ch <- struct{}{}:
	default:
	}
}

// StartFactory launches one refill goroutine per suite and blocks until
// every suite has been primed to its target level. It errors if a factory
// is already running or a suite name is unknown.
func (p *KeyPool) StartFactory(opts FactoryOptions) error {
	if opts.Target <= 0 {
		opts.Target = 64
	}
	if opts.LowWater <= 0 {
		opts.LowWater = opts.Target / 4
	}
	if len(opts.Suites) == 0 {
		return errors.New("harness: factory needs at least one suite")
	}
	kems := make(map[string]kem.KEM, len(opts.Suites))
	for _, name := range opts.Suites {
		k, err := kem.ByName(name)
		if err != nil {
			return err
		}
		kems[name] = k
	}
	f := &factory{
		stop: make(chan struct{}),
		wake: make(map[string]chan struct{}, len(opts.Suites)),
		low:  opts.LowWater,
	}
	p.mu.Lock()
	if p.factory != nil {
		p.mu.Unlock()
		return errors.New("harness: factory already running")
	}
	p.factory = f
	p.mu.Unlock()

	// Prime synchronously so callers see a warm pool, then hand each suite
	// to its refill goroutine.
	for name, k := range kems {
		if err := p.refill(f, name, k, opts.Target); err != nil {
			p.mu.Lock()
			p.factory = nil
			p.mu.Unlock()
			return fmt.Errorf("harness: priming %s: %w", name, err)
		}
		f.wake[name] = make(chan struct{}, 1)
	}
	for name, k := range kems {
		f.wg.Add(1)
		go p.factoryLoop(f, name, k, opts.Target)
	}
	return nil
}

// refill tops the suite up to target in factoryBatch-sized steps, stopping
// early on factory shutdown.
func (p *KeyPool) refill(f *factory, kemName string, k kem.KEM, target int) error {
	for {
		select {
		case <-f.stop:
			return nil
		default:
		}
		n := target - p.Len(kemName)
		if n <= 0 {
			return nil
		}
		if n > factoryBatch {
			n = factoryBatch
		}
		shares := make([]*tls13.KeyShare, n)
		for i := range shares {
			pub, priv, err := k.GenerateKey(nil)
			if err != nil {
				return err
			}
			shares[i] = &tls13.KeyShare{Pub: pub, Priv: priv}
		}
		p.mu.Lock()
		p.m[kemName] = append(p.m[kemName], shares...)
		p.mu.Unlock()
		f.generated.Add(uint64(n))
		f.batches.Add(1)
	}
}

func (p *KeyPool) factoryLoop(f *factory, kemName string, k kem.KEM, target int) {
	defer f.wg.Done()
	for {
		select {
		case <-f.stop:
			return
		case <-f.wake[kemName]:
		}
		if err := p.refill(f, kemName, k, target); err != nil {
			f.recordErr(err)
			return
		}
	}
}

// StopFactory shuts the factory down gracefully: refill goroutines finish
// the refill step in flight, then exit. Pooled keys remain available to Get. It
// returns the first keygen error the factory hit, if any, and is a no-op
// when no factory is running.
func (p *KeyPool) StopFactory() error {
	p.mu.Lock()
	f := p.factory
	p.factory = nil
	p.mu.Unlock()
	if f == nil {
		return nil
	}
	close(f.stop)
	f.wg.Wait()
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.firstErr
}

// FactoryStats snapshots the pool and factory counters. Counters persist
// across StartFactory/StopFactory cycles except Generated/Batches, which
// belong to the running (or most recently observed) factory.
func (p *KeyPool) FactoryStats() FactoryStats {
	s := FactoryStats{
		Hits:   p.hits.Load(),
		Misses: p.misses.Load(),
	}
	p.mu.Lock()
	f := p.factory
	p.mu.Unlock()
	if f != nil {
		s.Generated = f.generated.Load()
		s.Batches = f.batches.Load()
	}
	return s
}
