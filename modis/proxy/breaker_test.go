package proxy

import (
	"testing"
	"time"
)

// newTestBreaker builds a breaker on the shared fakeClock (see
// admission_test.go).
func newTestBreaker(cooldown time.Duration) (*breaker, *fakeClock) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	return newBreaker(BreakerOptions{Cooldown: cooldown, now: clk.Now}), clk
}

// TestBreakerOpensAtThreshold: the threshold is one failure — the
// first transport failure takes a node out of the rotation.
func TestBreakerOpensAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(time.Second)
	if b.currentState() != BreakerClosed || !b.allow() {
		t.Fatal("new breaker must be closed and allowing")
	}
	b.failure()
	if b.currentState() != BreakerOpen || b.allow() {
		t.Fatalf("state after one failure = %s (allowing: %v), want open and blocking", b.currentState(), b.allow())
	}
}

func TestBreakerHalfOpenProbeLifecycle(t *testing.T) {
	b, clk := newTestBreaker(time.Second)
	b.failure()
	if b.allow() {
		t.Fatal("open circuit inside the cooldown must block")
	}
	clk.advance(time.Second)
	// The first Allow after the cooldown claims the single probe slot.
	if !b.allow() {
		t.Fatal("cooldown elapsed: the circuit must half-open and admit a probe")
	}
	if b.currentState() != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open", b.currentState())
	}
	if b.allow() {
		t.Fatal("second request during the probe must be blocked")
	}
	// Probe fails: back to open, cooldown restarts from now.
	b.failure()
	if b.currentState() != BreakerOpen || b.allow() {
		t.Fatal("failed probe must re-open the circuit")
	}
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("second cooldown elapsed: probe again")
	}
	// Probe succeeds: closed, full trust.
	b.success()
	if b.currentState() != BreakerClosed || !b.allow() || !b.healthy() {
		t.Fatalf("successful probe must close the circuit (state %s)", b.currentState())
	}
}

func TestBreakerReleaseProbeReturnsSlot(t *testing.T) {
	b, clk := newTestBreaker(time.Second)
	b.failure()
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("expected the probe slot")
	}
	// The caller routed elsewhere; the slot must come back so the next
	// request can probe instead of waiting for an outcome that never
	// arrives.
	b.releaseProbe()
	if !b.allow() {
		t.Fatal("released probe slot must be claimable again")
	}
}

func TestBreakerSweepSuccessBypassesCooldown(t *testing.T) {
	b, _ := newTestBreaker(time.Hour)
	b.failure()
	if b.allow() {
		t.Fatal("open circuit must block inside its cooldown")
	}
	// An out-of-band health sweep heard from the node: nothing left to
	// wait for, regardless of the cooldown.
	b.success()
	if b.currentState() != BreakerClosed || !b.allow() {
		t.Fatal("sweep success must close the circuit immediately")
	}
}

func TestBreakerOpenFailuresDoNotExtendCooldown(t *testing.T) {
	b, clk := newTestBreaker(time.Second)
	b.failure()
	clk.advance(900 * time.Millisecond)
	// More failures reported while open (e.g. watch goroutines noticing
	// the same dead node) must not push the half-open horizon out.
	b.failure()
	b.failure()
	clk.advance(100 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooldown ran from the original trip; the circuit must half-open")
	}
}
