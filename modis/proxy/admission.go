package proxy

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// TenantHeader is the HTTP header tenants identify themselves with.
// Requests without it share the DefaultTenant budget.
const TenantHeader = "X-Modis-Tenant"

// DefaultTenant is the bucket anonymous requests draw from.
const DefaultTenant = "default"

// ErrThrottled marks an admission rejection. The proxy maps it to 429
// with a Retry-After header.
var ErrThrottled = errors.New("proxy: admission rejected")

// AdmissionOptions tune per-tenant admission control. Zero values
// disable the corresponding limit.
type AdmissionOptions struct {
	// Rate is the sustained submissions/second each tenant may make
	// (token-bucket refill rate). 0 = unlimited rate.
	Rate float64
	// Burst is the bucket depth — submissions a tenant may fire
	// back-to-back after idling (default max(Rate, 1) when Rate > 0).
	Burst float64
	// MaxTenantJobs caps one tenant's concurrently running jobs.
	MaxTenantJobs int
	// MaxGlobalJobs caps the whole fleet's concurrently running jobs
	// admitted through this proxy.
	MaxGlobalJobs int
	// now overrides the clock (tests). Nil = time.Now.
	now func() time.Time
}

// admission is the proxy's front door: a token bucket per tenant for
// submission rate plus per-tenant and global concurrent-job caps. Safe
// for concurrent use.
type admission struct {
	opts AdmissionOptions

	mu      sync.Mutex
	buckets map[string]*bucket
	running map[string]int // tenant → jobs admitted and not yet released
	global  int
}

type bucket struct {
	tokens float64
	last   time.Time
}

// newAdmission builds an admission from options.
func newAdmission(opts AdmissionOptions) *admission {
	if opts.now == nil {
		opts.now = time.Now
	}
	if opts.Rate > 0 && opts.Burst <= 0 {
		opts.Burst = opts.Rate
		if opts.Burst < 1 {
			opts.Burst = 1
		}
	}
	return &admission{
		opts:    opts,
		buckets: map[string]*bucket{},
		running: map[string]int{},
	}
}

// admit charges one submission to the tenant. On success it returns a
// release function the caller must invoke once the admitted job
// reaches a terminal state (it frees the concurrency slot; the rate
// token is consumed either way). On rejection it returns ErrThrottled
// (wrapped with the reason) and the duration after which retrying can
// succeed — the Retry-After value.
func (a *admission) admit(tenant string) (release func(), retryAfter time.Duration, err error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	// Concurrency caps first: a capped tenant shouldn't burn rate
	// tokens on rejections.
	if a.opts.MaxGlobalJobs > 0 && a.global >= a.opts.MaxGlobalJobs {
		return nil, time.Second, fmt.Errorf("%w: fleet at its concurrent-job cap (%d)", ErrThrottled, a.opts.MaxGlobalJobs)
	}
	if a.opts.MaxTenantJobs > 0 && a.running[tenant] >= a.opts.MaxTenantJobs {
		return nil, time.Second, fmt.Errorf("%w: tenant %q at its concurrent-job cap (%d)", ErrThrottled, tenant, a.opts.MaxTenantJobs)
	}

	if a.opts.Rate > 0 {
		now := a.opts.now()
		b, ok := a.buckets[tenant]
		if !ok {
			b = &bucket{tokens: a.opts.Burst, last: now}
			a.buckets[tenant] = b
		}
		b.tokens += now.Sub(b.last).Seconds() * a.opts.Rate
		b.last = now
		if b.tokens > a.opts.Burst {
			b.tokens = a.opts.Burst
		}
		if b.tokens < 1 {
			wait := time.Duration((1 - b.tokens) / a.opts.Rate * float64(time.Second))
			if wait <= 0 {
				wait = time.Second
			}
			return nil, wait, fmt.Errorf("%w: tenant %q over its submission rate (%.3g/s)", ErrThrottled, tenant, a.opts.Rate)
		}
		b.tokens--
	}

	a.running[tenant]++
	a.global++
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.running[tenant]--
			if a.running[tenant] <= 0 {
				delete(a.running, tenant)
			}
			a.global--
			a.mu.Unlock()
		})
	}, 0, nil
}
