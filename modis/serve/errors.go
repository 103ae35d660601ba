package serve

// Typed error classification for the serving fleet. Every layer that
// talks to a node — serve.Client, the routing proxy, the chaos harness
// — needs the same answer to one question: is this failure worth
// retrying? The classification lives here, once, so a client retry, a
// proxy failover, and a test assertion cannot drift apart:
//
//   - retryable: the request may never have been processed, or the
//     rejection is explicitly temporary — transport failures
//     (connection refused/reset, unexpected EOF), 429 (throttled, with
//     Retry-After), 502 (node unreachable behind a proxy), 503
//     (draining or shedding, with Retry-After).
//   - terminal: retrying the same request cannot succeed — 400
//     (malformed/invalid), 404 (unknown workload or job), 504 (the
//     request's deadline budget is exhausted; a retry would have no
//     budget left), and context cancellation or deadline expiry on the
//     caller's side.
//
// Retries of POST /v1/jobs are only safe when the submission carries
// an idempotency key (see SubmitRequest.IdempotencyKey): a retried
// keyed submit returns the original job instead of running a second
// one, even across a node restart.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"time"
)

// ErrOverloaded marks an admission rejection from an overloaded
// scheduler: the bounded queue is full, or a queued job waited past the
// queue's max wait and was shed. Wire layers map it to 503 with a
// Retry-After header — shedding early and explicitly beats timing
// clients out at the back of the line. Match with errors.Is.
var ErrOverloaded = errors.New("serve: overloaded")

// APIError is a non-2xx daemon (or proxy) response, carrying the HTTP
// status the error traveled under and the server's Retry-After hint
// when one was sent. serve.Client returns it for every failed call, so
// callers can classify with Retryable and pace with RetryAfter.
type APIError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration // 0 when the response carried no hint
}

func (e *APIError) Error() string {
	return "serve: daemon returned " + itoa(e.Status) + ": " + e.Msg
}

// itoa avoids strconv in the hot error path; statuses are small.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	pos := len(b)
	for n > 0 && pos > 0 {
		pos--
		b[pos] = byte('0' + n%10)
		n /= 10
	}
	return string(b[pos:])
}

// RetryableStatus reports whether an HTTP status from the serving
// stack marks a temporary condition: 429 (admission throttled), 502
// (node unreachable), 503 (draining, shedding, or no alive owner).
// Everything else — including 504, the deadline-budget exhaustion
// signal — is terminal for the request that received it.
func RetryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// Retryable classifies an error from a Client call or a forwarded node
// request. Transport-level failures are retryable (the request may
// never have been processed — pair with an idempotency key before
// retrying a submit); APIErrors classify by status; the caller's own
// context cancellation or deadline is terminal.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return RetryableStatus(ae.Status)
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		// The transport failed underneath the request. If the failure
		// was the caller's context expiring mid-flight, it is still
		// terminal.
		return !errors.Is(ue.Err, context.Canceled) && !errors.Is(ue.Err, context.DeadlineExceeded)
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return true
	}
	return false
}

// RetryAfterHint extracts the server's Retry-After pacing hint from an
// error, when it carried one.
func RetryAfterHint(err error) (time.Duration, bool) {
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > 0 {
		return ae.RetryAfter, true
	}
	return 0, false
}

// RetryPolicy is the unified retry/backoff policy of the serving
// stack: capped exponential backoff between attempts, the server's
// Retry-After hint honored when larger, every wait bounded by the
// caller's context. The zero value disables retries (one attempt);
// setting only MaxAttempts retries with 50ms→2s backoff.
type RetryPolicy struct {
	// MaxAttempts is the total attempt count including the first
	// (<= 1 means no retries).
	MaxAttempts int
	// BaseBackoff is the wait after the first failure; it doubles per
	// attempt (default 50ms when MaxAttempts > 1).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 2s).
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 1 {
		return p
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// backoff is the wait before attempt n+1 (n counts completed
// attempts, so n >= 1), the larger of the capped exponential and the
// server's hint.
func (p RetryPolicy) backoff(n int, hint time.Duration) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < n && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if hint > d {
		d = hint
	}
	return d
}

// Do runs op under the policy: retry while the error classifies
// retryable and attempts remain, waiting the backoff (or the server's
// Retry-After, whichever is larger) between attempts. The context
// bounds the whole loop — both op itself and the waits.
func (p RetryPolicy) Do(ctx context.Context, op func(context.Context) error) error {
	p = p.withDefaults()
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for n := 1; ; n++ {
		err = op(ctx)
		if err == nil || n >= attempts || !Retryable(err) {
			return err
		}
		hint, _ := RetryAfterHint(err)
		t := time.NewTimer(p.backoff(n, hint))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}
