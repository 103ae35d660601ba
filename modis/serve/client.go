package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/modis"
)

// Client drives a modisd daemon (or a modisproxy front) over HTTP —
// the programmatic twin of the curl examples in docs/serving.md and
// the transport behind cmd/modis -remote and modisproxy's forwarding.
// The zero configuration makes every call exactly once; WithRetry arms
// the fleet's unified retry/backoff policy (submits then auto-carry
// idempotency keys, so a retried submit can never double-run).
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8080"); a missing scheme defaults to http.
func NewClient(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// WithRetry sets the client's retry policy and returns the client.
// With retries armed, Submit generates an idempotency key when the
// request carries none, so every retry replays the original job
// instead of starting a second one, and Events resumes dropped streams
// from the last delivered event.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	c.retry = p
	return c
}

// NewIdempotencyKey returns a fresh submission key: 16 random bytes,
// hex. Callers that want to retry a submit across their own process
// restarts should mint the key once, persist it with the request, and
// reuse it on every attempt.
func NewIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("idem-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// doRaw performs one HTTP exchange and returns the raw response body.
// Non-2xx responses become *APIError carrying the status and the
// server's Retry-After hint, so callers classify with Retryable.
func (c *Client) doRaw(ctx context.Context, method, path string, blob []byte) ([]byte, error) {
	var rd io.Reader
	if blob != nil {
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if blob != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, newAPIError(resp, body)
	}
	return body, nil
}

// newAPIError wraps a non-2xx response as an *APIError: Msg is the
// body's {"error": …} field (the whole body when it has none), and
// RetryAfter the response's Retry-After hint (whole seconds), when it
// sent one.
func newAPIError(resp *http.Response, body []byte) *APIError {
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	ae := &APIError{Status: resp.StatusCode, Msg: msg}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		ae.RetryAfter = time.Duration(secs) * time.Second
	}
	return ae
}

func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var blob []byte
	if body != nil {
		var err error
		blob, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	op := func(ctx context.Context) error {
		respBody, err := c.doRaw(ctx, method, path, blob)
		if err != nil {
			return err
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(respBody, out)
	}
	// Reads and cancels are naturally idempotent, so the retry policy
	// covers them directly; submits carry their own budget-aware retry
	// loop in Submit.
	if p := c.retry.withDefaults(); method != http.MethodPost && p.MaxAttempts > 1 {
		return p.Do(ctx, op)
	}
	return op(ctx)
}

// Submit submits a job and returns its accepted status (the job id in
// particular). With a retry policy armed (WithRetry), transport
// failures and retryable statuses are retried under the policy: the
// submission carries an idempotency key (generated when the request
// has none) so a retried submit returns the original job. TimeoutMS is
// treated as a deadline budget: each attempt forwards only what remains
// of it — or of ctx's deadline, when that comes sooner — and a budget
// spent entirely on failed attempts surfaces as a terminal 504.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (*JobStatus, error) {
	p := c.retry.withDefaults()
	if p.MaxAttempts > 1 && req.IdempotencyKey == "" {
		req.IdempotencyKey = NewIdempotencyKey()
	}
	var start time.Time
	budget := time.Duration(req.TimeoutMS) * time.Millisecond
	if budget > 0 {
		start = time.Now()
	}
	var st JobStatus
	err := p.Do(ctx, func(ctx context.Context) error {
		attempt := req
		if budget > 0 {
			remaining := budget - time.Since(start)
			if dl, ok := ctx.Deadline(); ok {
				remaining = min(remaining, time.Until(dl))
			}
			if remaining <= 0 {
				return &APIError{Status: http.StatusGatewayTimeout, Msg: "serve: deadline budget exhausted before the submit was sent"}
			}
			attempt.TimeoutMS = int64(remaining / time.Millisecond)
			if attempt.TimeoutMS < 1 {
				attempt.TimeoutMS = 1
			}
		}
		return c.do(ctx, http.MethodPost, "/v1/jobs", attempt, &st)
	})
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches a job's current status (including the report once
// done).
func (c *Client) Status(ctx context.Context, jobID string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, jobID string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+jobID, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// List fetches one page of the daemon's job ledger: jobs in
// submission order after cursor (empty starts from the beginning), at
// most limit per page (0 = all). A non-empty NextCursor in the
// response continues the listing.
func (c *Client) List(ctx context.Context, cursor string, limit int) (*JobsPageResponse, error) {
	path := "/v1/jobs"
	q := url.Values{}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page JobsPageResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &page); err != nil {
		return nil, err
	}
	return &page, nil
}

// Workloads lists the daemon's workload catalog: each entry carries
// the catalog name, the descriptor hash the fleet routes on, and the
// full descriptor.
func (c *Client) Workloads(ctx context.Context) ([]WorkloadInfo, error) {
	var infos []WorkloadInfo
	if err := c.do(ctx, http.MethodGet, "/v1/workloads", nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// AppendRows appends a batch of rows to the named workload's table on
// the daemon (or through the proxy, which forwards to the owning
// node). Appends are not idempotent, so they are never retried
// automatically — a transport failure leaves the committed/uncommitted
// question to the caller, who can compare the catalog's table_version.
func (c *Client) AppendRows(ctx context.Context, workload string, req AppendRowsRequest) (*AppendResponse, error) {
	var out AppendResponse
	if err := c.do(ctx, http.MethodPost, "/v1/workloads/"+url.PathEscape(workload)+"/rows", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches the daemon's /healthz body: readiness plus the node
// identity the proxy routes on.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var hr HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &hr); err != nil {
		return nil, err
	}
	return &hr, nil
}

// Algorithms lists the daemon's algorithm keys.
func (c *Client) Algorithms(ctx context.Context) ([]string, error) {
	var names []string
	if err := c.do(ctx, http.MethodGet, "/v1/algorithms", nil, &names); err != nil {
		return nil, err
	}
	return names, nil
}

// Events streams a job's progress events, delivering each to fn in
// order, until the stream ends (job terminated or ctx cancelled). It
// returns the terminal status carried by the stream's closing "end"
// event. With a retry policy armed, a stream dropped mid-flight — node
// restart, proxy failover, transport reset — reconnects with
// Last-Event-ID and resumes exactly after the last delivered event, so
// fn never sees a duplicate or a gap; the attempt counter resets
// whenever a reconnect makes progress.
func (c *Client) Events(ctx context.Context, jobID string, fn func(modis.Event)) (*JobStatus, error) {
	p := c.retry.withDefaults()
	lastID := -1
	fails := 0
	for {
		before := lastID
		final, err := c.streamEvents(ctx, jobID, &lastID, fn)
		if final != nil || (err == nil && p.MaxAttempts <= 1) {
			return final, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err == nil {
			// The stream ended cleanly but carried no terminal status:
			// the server went away mid-job. Resumable.
			err = io.ErrUnexpectedEOF
		}
		if p.MaxAttempts <= 1 || !Retryable(err) {
			return nil, err
		}
		if lastID > before {
			fails = 0
		}
		fails++
		if fails >= p.MaxAttempts {
			return nil, err
		}
		hint, _ := RetryAfterHint(err)
		t := time.NewTimer(p.backoff(fails, hint))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
}

// streamEvents runs one SSE connection, tracking the server's event
// ids in *lastID (so a reconnect resumes after the last delivered
// event) and returning the "end" event's terminal status when the
// stream carried one.
func (c *Client) streamEvents(ctx context.Context, jobID string, lastID *int, fn func(modis.Event)) (*JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		return nil, err
	}
	if *lastID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*lastID))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(resp.Body)
		return nil, newAPIError(resp, blob)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	event, data, id := "", "", -1
	var final *JobStatus
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			if n, perr := strconv.Atoi(strings.TrimPrefix(line, "id: ")); perr == nil {
				id = n
			}
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			switch event {
			case "progress":
				var ev modis.Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return final, fmt.Errorf("serve: malformed progress event: %w", err)
				}
				// A resumed stream may replay the boundary event;
				// deliver only what is new.
				if id < 0 || id > *lastID {
					if fn != nil {
						fn(ev)
					}
					if id >= 0 {
						*lastID = id
					}
				}
			case "end":
				st := &JobStatus{}
				if err := json.Unmarshal([]byte(data), st); err != nil {
					return final, fmt.Errorf("serve: malformed end event: %w", err)
				}
				final = st
			}
			event, data, id = "", "", -1
		}
	}
	return final, sc.Err()
}

// Wait polls until the job reaches a terminal state and returns it.
func (c *Client) Wait(ctx context.Context, jobID string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, jobID)
		if err != nil {
			return nil, err
		}
		switch st.Status {
		case StatusDone, StatusFailed, StatusCancelled:
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
