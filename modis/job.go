package modis

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one asynchronously running discovery: the handle [Engine.Submit]
// returns. A job runs on its own goroutine; the handle observes and
// controls it from any number of goroutines:
//
//	job, err := eng.Submit(ctx, "bi", modis.WithBudget(300))
//	...
//	for ev := range job.Events() {
//		log.Printf("level %d, skyline %d", ev.Level, ev.SkylineSize)
//	}
//	rep, err := job.Result()
//
// [Job.Done] closes when the run terminates, [Job.Result] blocks until
// then, [Job.Cancel] aborts the search (the job then finishes with
// context.Canceled), and [Job.Events] streams the run's progress
// events. [Engine.Run] is this API's synchronous wrapper: Submit
// followed by Result.
type Job struct {
	id        string
	algorithm string
	submitted time.Time
	cancel    context.CancelFunc
	done      chan struct{}
	started   atomic.Bool
	report    *Report // report and err are written once, before done closes
	err       error

	mu       sync.Mutex
	events   []Event
	wake     chan struct{} // closed and replaced on every record; stays closed after finish
	finished bool
}

func newJob(algorithm string) *Job {
	return &Job{
		id:        newJobID(),
		algorithm: algorithm,
		submitted: time.Now(),
		done:      make(chan struct{}),
		wake:      make(chan struct{}),
	}
}

// jobSeq disambiguates job ids if the system's entropy source fails.
var jobSeq atomic.Int64

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("job-%d", jobSeq.Add(1))
	}
	return "job-" + hex.EncodeToString(b[:])
}

// ID returns the job's unique identifier, also stamped into the
// report's JobID.
func (j *Job) ID() string { return j.id }

// Algorithm returns the canonical registry key the job runs.
func (j *Job) Algorithm() string { return j.algorithm }

// Done returns a channel that closes when the run terminates —
// completed, failed, or cancelled. After Done, Result returns
// immediately.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result blocks until the run terminates and returns its report. A
// cancelled or expired run returns (nil, ctx.Err()); a failed run
// returns the search error. Result may be called any number of times.
func (j *Job) Result() (*Report, error) {
	<-j.done
	return j.report, j.err
}

// Cancel aborts the run: the search observes cancellation at
// frontier-pop and valuation granularity and the job finishes with
// context.Canceled. Cancel is idempotent and a no-op once the job is
// done.
func (j *Job) Cancel() { j.cancel() }

// Started reports whether the search has begun executing — false while
// the job waits in a scheduler's admission queue.
func (j *Job) Started() bool { return j.started.Load() }

// LastEvent returns the most recent progress event, for cheap polling
// (status endpoints); ok is false before the first event.
func (j *Job) LastEvent() (ev Event, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.events) == 0 {
		return Event{}, false
	}
	return j.events[len(j.events)-1], true
}

// Events streams the run's progress events — the same events, in the
// same order, a [WithProgress] callback observes — ending with the
// final Done event, after which the channel closes. Each call returns
// an independent stream that replays from the run's first event, so
// late subscribers miss nothing. The caller must drain the channel (it
// closes soon after the job finishes); to stop consuming early, use
// [Job.EventsContext] and cancel its context.
func (j *Job) Events() <-chan Event { return j.EventsContext(context.Background()) }

// EventsContext is Events with a subscription lifetime: the stream
// ends — the channel closes without necessarily delivering the run's
// remaining events — when ctx is cancelled. Wire layers use it to drop
// a stream when its client disconnects without touching the job.
func (j *Job) EventsContext(ctx context.Context) <-chan Event {
	return j.EventsFrom(ctx, 0)
}

// EventsFrom is EventsContext resuming mid-stream: the returned
// channel replays recorded events starting at index from (0-based)
// instead of the run's first event. Event indices are stable across
// subscriptions — event i is the same event on every stream — which is
// what lets a dropped wire stream reconnect and pick up exactly after
// the last event it delivered (SSE Last-Event-ID). A from beyond the
// recorded history waits for that event to happen.
func (j *Job) EventsFrom(ctx context.Context, from int) <-chan Event {
	if from < 0 {
		from = 0
	}
	ch := make(chan Event)
	go j.streamFrom(ctx, ch, from)
	return ch
}

// streamFrom replays recorded events from the given index, waiting for
// more until the job finishes.
func (j *Job) streamFrom(ctx context.Context, ch chan Event, from int) {
	defer close(ch)
	i := from
	for {
		j.mu.Lock()
		for i >= len(j.events) {
			if j.finished {
				j.mu.Unlock()
				return
			}
			w := j.wake
			j.mu.Unlock()
			select {
			case <-w:
			case <-ctx.Done():
				return
			}
			j.mu.Lock()
		}
		ev := j.events[i]
		i++
		j.mu.Unlock()
		select {
		case ch <- ev:
		case <-ctx.Done():
			return
		}
	}
}

// record appends a progress event and wakes the streams. It runs on
// the search goroutine (the progress hook's contract), so it stays
// O(1): delivery happens on the subscribers' goroutines.
func (j *Job) record(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	close(j.wake)
	j.wake = make(chan struct{})
	j.mu.Unlock()
}

// finish publishes the terminal state and releases Done, Result, and
// the event streams — Done first, so a stream that observes the end of
// the run can count on Done being closed.
func (j *Job) finish(rep *Report, err error) {
	j.report, j.err = rep, err
	close(j.done)
	j.mu.Lock()
	j.finished = true
	close(j.wake)
	j.mu.Unlock()
}
