// Package workpool is the daemon-global exact-inference worker pool:
// a fixed set of worker goroutines servicing any number of task
// queues with deficit round-robin (DRR) fairness. The pool bounds the
// process's total inference concurrency — total CPU spent on model
// evaluation never exceeds the worker count, however many workload
// shards are active — and the scheduler guarantees that a queue
// saturating the node cannot starve another queue's tasks beyond a
// bounded wait.
//
// Costs are unknown before a task runs (a model inference's duration
// depends on the state it evaluates), so the scheduler charges each
// queue's deficit counter *after* service with the measured duration
// — the deferred-charge variant of DRR. A queue is eligible while its
// deficit is positive; when every backlogged queue has exhausted its
// deficit, all of them are replenished together, preserving their
// relative debt, so a queue that just received a long service waits
// out proportionally more rounds before running again.
package workpool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options tune a Pool. The zero value is ready to use.
type Options struct {
	// Workers is the fixed number of worker goroutines (default
	// GOMAXPROCS). This is the hard bound on concurrently executing
	// tasks across every queue of the pool.
	Workers int
	// Quantum is the service time credited to each backlogged queue
	// per replenish round (default 5ms). Smaller quanta interleave
	// queues more finely; larger ones favor throughput.
	Quantum time.Duration
}

// defaultQuantum is small relative to a typical exact inference, so
// two backlogged queues interleave at single-task granularity.
const defaultQuantum = 5 * time.Millisecond

// Pool is a fixed-size worker set fed by per-queue DRR scheduling.
// Create queues with NewQueue and submit work with Queue.Run; Close
// drains everything already submitted and stops the workers.
type Pool struct {
	workers int
	quantum int64 // nanoseconds

	mu      sync.Mutex
	cond    *sync.Cond
	ring    []*Queue // backlogged queues, round-robin order
	cursor  int
	pending int // queued tasks across all queues
	closed  bool
	wg      sync.WaitGroup

	busy atomic.Int64
}

// New starts a pool with opts.Workers worker goroutines.
func New(opts Options) *Pool {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Quantum <= 0 {
		opts.Quantum = defaultQuantum
	}
	p := &Pool{workers: opts.Workers, quantum: int64(opts.Quantum)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the fixed worker count.
func (p *Pool) Workers() int { return p.workers }

// Close drains every task already submitted, then stops the workers
// and waits for them to exit. Run calls racing or following Close
// execute their tasks inline on the calling goroutine, so the
// ExactRunner contract (every task runs exactly once) holds across
// shutdown.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// PoolStats is a point-in-time view of the pool.
type PoolStats struct {
	// Workers is the fixed worker count.
	Workers int
	// Busy is how many workers are executing a task right now.
	Busy int
	// Pending is how many tasks are queued across all queues.
	Pending int
}

// Stats snapshots the pool's gauges.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	pending := p.pending
	p.mu.Unlock()
	return PoolStats{Workers: p.workers, Busy: int(p.busy.Load()), Pending: pending}
}

// task is one queued unit of work.
type task struct {
	fn    func()
	batch *batch
	enq   time.Time
}

// batch tracks one Run call's tasks; done closes when the last
// finishes.
type batch struct {
	remaining atomic.Int64
	done      chan struct{}
}

// Queue is one flow's submission lane into the pool — the serving
// layer gives each workload shard its own queue, so DRR fairness is
// fairness between shards. Queues are cheap: an idle queue holds no
// resources and needs no teardown.
type Queue struct {
	pool  *Pool
	label string
	limit int

	// Guarded by pool.mu.
	tasks    []task
	head     int
	inflight int
	deficit  int64
	inRing   bool

	doneCount atomic.Int64
	serviceNS atomic.Int64
	waitNS    atomic.Int64
}

// NewQueue returns a new submission queue. label names the queue in
// stats; limit caps how many of the queue's tasks may execute at
// once — its share of the pool — with limit <= 0 meaning no cap
// beyond the pool's worker count.
func (p *Pool) NewQueue(label string, limit int) *Queue {
	return &Queue{pool: p, label: label, limit: limit}
}

// QueueStats is a point-in-time view of one queue.
type QueueStats struct {
	Label string
	// Pending is how many of the queue's tasks are waiting.
	Pending int
	// Inflight is how many are executing right now.
	Inflight int
	// Done counts tasks completed over the queue's lifetime.
	Done int64
	// Service is total execution time across completed tasks.
	Service time.Duration
	// Wait is total queue time (submit to start) across started tasks.
	Wait time.Duration
}

// Stats snapshots the queue's counters.
func (q *Queue) Stats() QueueStats {
	p := q.pool
	p.mu.Lock()
	pending := len(q.tasks) - q.head
	inflight := q.inflight
	p.mu.Unlock()
	return QueueStats{
		Label:    q.label,
		Pending:  pending,
		Inflight: inflight,
		Done:     q.doneCount.Load(),
		Service:  time.Duration(q.serviceNS.Load()),
		Wait:     time.Duration(q.waitNS.Load()),
	}
}

// Run submits the tasks to the pool on this queue and blocks until
// every one has executed — the shape fst.ExactRunner requires. Tasks
// must be self-contained: the pool runs them in scheduler order on
// worker goroutines, bounded by the pool's worker count and the
// queue's share limit. On a closed pool the tasks run inline on the
// calling goroutine instead, so no submission is ever lost.
func (q *Queue) Run(tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	b := &batch{done: make(chan struct{})}
	b.remaining.Store(int64(len(tasks)))
	now := time.Now()
	p := q.pool
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		for _, fn := range tasks {
			fn()
		}
		return
	}
	for _, fn := range tasks {
		q.tasks = append(q.tasks, task{fn: fn, batch: b, enq: now})
	}
	p.pending += len(tasks)
	if !q.inRing {
		p.ring = append(p.ring, q)
		q.inRing = true
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	<-b.done
}

// RunExact is Run in the shape of fst.ExactRunner, so a queue is a
// valuation's exact-inference runner as is. Tasks observe their own
// context; ctx is not consulted.
func (q *Queue) RunExact(_ context.Context, tasks []func()) { q.Run(tasks) }

// worker is one pool goroutine: pick the next task under the DRR
// policy, execute it, charge its queue the measured duration.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		t, q, ok := p.next()
		if !ok {
			return
		}
		start := time.Now()
		q.waitNS.Add(int64(start.Sub(t.enq)))
		p.busy.Add(1)
		t.fn()
		p.busy.Add(-1)
		dur := time.Since(start)
		q.doneCount.Add(1)
		q.serviceNS.Add(int64(dur))
		p.mu.Lock()
		q.inflight--
		q.deficit -= int64(dur)
		p.mu.Unlock()
		// The finished task may have freed a share-limit slot its own
		// queue was blocked on; the pick loop below services anything
		// newly eligible, but a waiting peer worker must also be woken.
		p.cond.Signal()
		if t.batch.remaining.Add(-1) == 0 {
			close(t.batch.done)
		}
	}
}

// next blocks until a task is schedulable (or the pool is closed and
// drained) and dequeues it.
func (p *Pool) next() (task, *Queue, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if q := p.pickLocked(); q != nil {
			t := q.tasks[q.head]
			q.tasks[q.head] = task{} // release the closure
			q.head++
			q.inflight++
			p.pending--
			if q.head == len(q.tasks) {
				// Drained: leave the ring and reset the buffer. Leftover
				// credit is forfeited (standard DRR), debt is kept — a
				// queue that just consumed a long service re-enters the
				// ring owing for it.
				q.tasks = q.tasks[:0]
				q.head = 0
				if q.deficit > 0 {
					q.deficit = 0
				}
				p.dropFromRingLocked(q)
			}
			return t, q, true
		}
		if p.closed && p.pending == 0 {
			return task{}, nil, false
		}
		p.cond.Wait()
	}
}

// pickLocked chooses the next queue to service: scanning the ring
// from the cursor, the first backlogged queue under its share limit
// with positive deficit. When every candidate has exhausted its
// deficit, all candidates are replenished together — topped up so the
// least indebted reaches exactly one quantum, preserving relative
// debt — and the scan repeats. Returns nil when no queue has a
// schedulable task. Callers hold p.mu.
func (p *Pool) pickLocked() *Queue {
	for pass := 0; pass < 2; pass++ {
		candidates := false
		var maxDef int64
		n := len(p.ring)
		for i := 0; i < n; i++ {
			idx := (p.cursor + i) % n
			q := p.ring[idx]
			if q.head == len(q.tasks) {
				continue // all queued tasks already picked up
			}
			if q.limit > 0 && q.inflight >= q.limit {
				continue // at its share cap
			}
			if q.deficit > 0 {
				p.cursor = (idx + 1) % n
				return q
			}
			if !candidates || q.deficit > maxDef {
				maxDef = q.deficit
			}
			candidates = true
		}
		if !candidates {
			return nil
		}
		// Replenish round: every candidate gains the same credit, so
		// the richest lands exactly on one quantum and relative debt
		// carries over.
		boost := p.quantum - maxDef
		for _, q := range p.ring {
			if q.head == len(q.tasks) {
				continue
			}
			if q.limit > 0 && q.inflight >= q.limit {
				continue
			}
			q.deficit += boost
			if q.deficit > p.quantum {
				q.deficit = p.quantum
			}
		}
	}
	return nil
}

// dropFromRingLocked removes a drained queue from the ring, keeping
// the cursor pointing at the same next queue. Callers hold p.mu.
func (p *Pool) dropFromRingLocked(q *Queue) {
	for i, r := range p.ring {
		if r != q {
			continue
		}
		p.ring = append(p.ring[:i], p.ring[i+1:]...)
		if i < p.cursor {
			p.cursor--
		}
		if len(p.ring) == 0 {
			p.cursor = 0
		} else {
			p.cursor %= len(p.ring)
		}
		q.inRing = false
		return
	}
}

// Global is the process-wide pool library users share: created on
// first use with GOMAXPROCS workers and never closed. The serving
// daemon does not use it for exact inference — a Scheduler owns an
// explicit pool sized by -workers — but a bare engine run with
// WithParallelism(n > 1) runs its exact inferences on a queue here,
// so even unmanaged runs are bounded by one process-global worker set.
func Global() *Pool {
	globalOnce.Do(func() {
		globalPool = New(Options{})
	})
	return globalPool
}

var (
	globalOnce sync.Once
	globalPool *Pool
)
