package proxy

import (
	"errors"
	"testing"
	"time"
)

// fakeClock drives the token bucket deterministically.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1700000000, 0)} }

func mustAdmit(t *testing.T, a *admission, tenant string) func() {
	t.Helper()
	release, _, err := a.admit(tenant)
	if err != nil {
		t.Fatalf("admit %q: %v", tenant, err)
	}
	return release
}

// TestAdmissionRate: the token bucket throttles a tenant past its
// burst, reports a Retry-After that actually works, and refills with
// the clock. Tenants have independent buckets.
func TestAdmissionRate(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(AdmissionOptions{Rate: 1, Burst: 2, now: clk.Now})

	mustAdmit(t, a, "alice")()
	mustAdmit(t, a, "alice")()
	_, retry, err := a.admit("alice")
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("third burst submit: err = %v, want ErrThrottled", err)
	}
	if retry <= 0 || retry > time.Second {
		t.Errorf("retryAfter = %v, want (0, 1s] at rate 1/s", retry)
	}
	// A different tenant is unaffected.
	mustAdmit(t, a, "bob")()

	// Waiting the advertised time makes the retry succeed.
	clk.advance(retry)
	mustAdmit(t, a, "alice")()

	// The bucket never refills past its burst: a long idle buys exactly
	// Burst back-to-back submissions.
	clk.advance(time.Hour)
	mustAdmit(t, a, "alice")()
	mustAdmit(t, a, "alice")()
	if _, _, err := a.admit("alice"); !errors.Is(err, ErrThrottled) {
		t.Errorf("burst cap after idle: err = %v, want ErrThrottled", err)
	}
}

// TestAdmissionCaps: per-tenant and global concurrent-job caps bound
// admitted-but-unreleased jobs; release frees a slot exactly once.
func TestAdmissionCaps(t *testing.T) {
	a := newAdmission(AdmissionOptions{MaxTenantJobs: 1, MaxGlobalJobs: 2})

	relA := mustAdmit(t, a, "alice")
	if _, retry, err := a.admit("alice"); !errors.Is(err, ErrThrottled) {
		t.Fatalf("capped tenant admitted: %v", err)
	} else if retry < time.Second {
		t.Errorf("cap retryAfter = %v, want >= 1s", retry)
	}

	relB := mustAdmit(t, a, "bob")
	// Global cap (2) now binds even for a fresh tenant.
	if _, _, err := a.admit("carol"); !errors.Is(err, ErrThrottled) {
		t.Fatalf("over-global admit succeeded: %v", err)
	}

	relA()
	relA() // double release must not free a second slot
	relC := mustAdmit(t, a, "carol")
	if _, _, err := a.admit("dave"); !errors.Is(err, ErrThrottled) {
		t.Error("global cap stopped binding after an extra release")
	}
	relB()
	relC()
	// Every slot is free again: alice's own and both global ones.
	mustAdmit(t, a, "alice")
	mustAdmit(t, a, "dave")
}

// TestAdmissionDefaults: no limits configured → everything admits; an
// empty tenant shares the DefaultTenant budget.
func TestAdmissionDefaults(t *testing.T) {
	a := newAdmission(AdmissionOptions{})
	for i := 0; i < 100; i++ {
		mustAdmit(t, a, "")
	}

	capped := newAdmission(AdmissionOptions{MaxTenantJobs: 1})
	rel := mustAdmit(t, capped, "")
	defer rel()
	if _, _, err := capped.admit(DefaultTenant); !errors.Is(err, ErrThrottled) {
		t.Error("anonymous requests must share the DefaultTenant budget")
	}
}
