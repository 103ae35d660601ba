package proxy

import (
	"sync"
	"time"
)

// BreakerState is one of the circuit's three positions.
type BreakerState string

const (
	// BreakerClosed: the node is trusted; traffic flows.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: the node failed past the threshold; traffic is
	// blocked until the cooldown elapses.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: the cooldown elapsed; exactly one probe request
	// is allowed through to decide between closed and open.
	BreakerHalfOpen BreakerState = "half-open"
)

// BreakerOptions tune the per-node circuit breakers. A breaker opens
// on the first failure, so a dead node leaves the rotation at once.
type BreakerOptions struct {
	// Cooldown is how long an open circuit blocks traffic before
	// half-opening for a probe (default 2s). Out-of-band health sweeps
	// bypass the cooldown: a sweep success closes the circuit
	// immediately.
	Cooldown time.Duration
	// now overrides the clock (tests). Nil = time.Now.
	now func() time.Time
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Cooldown <= 0 {
		o.Cooldown = 2 * time.Second
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// breaker is a per-node circuit breaker: closed while the node
// behaves, open for a cooldown once it fails, then half-open —
// admitting exactly one probe whose outcome decides the next state. A
// flapping node is retried on the breaker's schedule instead of on
// every request, and a recovered node rejoins after one successful
// probe rather than waiting for the sweep that happens to see it. Safe
// for concurrent use.
type breaker struct {
	opts BreakerOptions

	mu       sync.Mutex
	state    BreakerState
	openedAt time.Time
	probing  bool
}

// newBreaker returns a closed breaker.
func newBreaker(opts BreakerOptions) *breaker {
	return &breaker{opts: opts.withDefaults(), state: BreakerClosed}
}

// allow reports whether a request may be sent to the node now. A true
// return from a half-open circuit claims the probe slot: the caller's
// request IS the probe, and its outcome must be reported with success
// or failure (every caller reports outcomes anyway, so there is no
// separate probe bookkeeping to leak).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.opts.now().Sub(b.openedAt) >= b.opts.Cooldown {
			b.state = BreakerHalfOpen
			b.probing = true
			return true
		}
		return false
	default: // half-open
		if !b.probing {
			b.probing = true
			return true
		}
		return false
	}
}

// success reports a successful exchange with the node: the circuit
// closes from any state (a health-sweep success short-circuits an open
// cooldown — the node answered, there is nothing left to wait for).
func (b *breaker) success() {
	b.mu.Lock()
	b.state = BreakerClosed
	b.probing = false
	b.mu.Unlock()
}

// failure reports a failed exchange: a closed circuit or a half-open
// probe opens. An open circuit refreshes nothing — the cooldown runs
// from the original trip, so a stream of rejected probes cannot push
// recovery out forever.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		b.state = BreakerOpen
		b.openedAt = b.opts.now()
		b.probing = false
	}
}

// releaseProbe returns an unconsumed half-open probe slot — for
// callers that claimed it through allow but then routed the request to
// a different node, so no outcome will ever be reported. No-op in any
// other state.
func (b *breaker) releaseProbe() {
	b.mu.Lock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
	b.mu.Unlock()
}

// currentState returns the circuit's position. An open circuit whose
// cooldown has elapsed still reads open until a request half-opens it.
func (b *breaker) currentState() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// healthy reports the passive view — circuit closed — used by read
// paths (catalog refresh, fleet-wide listings) that should not burn
// the half-open probe slot on bulk traffic.
func (b *breaker) healthy() bool {
	return b.currentState() == BreakerClosed
}
