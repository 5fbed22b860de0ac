// Package fanout provides a bounded worker pool that once ran the
// broker's wide fan-outs. No production code uses it any more: the
// broker delivers every fan-out on the publishing goroutine, since the
// pool bought no measurable throughput or CPU on the fanout_wide
// workload. It is kept only because the benchmark module's layer
// replays (bench/layers) still time Pool.Run as fanout.run_ns; it goes
// once that replay does.
//
// A large matched-target set is split into chunks — partitioned by
// connection at the call site, so per-connection delivery order is
// preserved by construction — and the chunks are executed by the
// submitting goroutine plus up to Workers()-1 pool workers.
//
// The pool is deliberately minimal and unkillable-safe:
//
//   - Run blocks until every chunk has executed, so a publish's fan-out
//     completes before its PubAck is emitted, exactly as in the serial
//     loop.
//   - Work distribution is best-effort. Task pointers are offered to a
//     bounded channel and workers are spawned lazily up to the limit; if
//     no worker is free the submitter simply executes the remaining
//     chunks itself. The pool can therefore never deadlock a publish —
//     worst case it degrades to the serial loop.
//   - Chunks are claimed through an atomic cursor, so a stale task
//     pointer left in the channel after its Run returned is harmless: a
//     worker that dequeues it finds the cursor exhausted and moves on.
//   - Idle workers exit after a short timeout; there is no Close. A
//     broker that stops publishing costs zero goroutines a moment later.
//
// The chunk function runs on multiple goroutines concurrently and must
// be safe for that (the broker's chunks touch only per-subscription and
// per-durable leaf locks, plus its thread-safe Env).
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workerIdle is how long a pool worker waits for a task before exiting.
const workerIdle = 100 * time.Millisecond

// Pool is a bounded worker pool for fan-out chunks. The zero value is
// not usable; call New.
type Pool struct {
	max   int32
	live  atomic.Int32
	tasks chan *task
}

// task is one Run invocation: a chunk cursor claimed atomically by
// whoever (submitter or worker) gets there first, and a WaitGroup the
// submitter blocks on.
type task struct {
	chunks int32
	next   atomic.Int32
	fn     func(chunk int)
	wg     sync.WaitGroup
}

// New returns a pool running at most workers concurrent helpers
// (including the submitting goroutine's own share of the work).
// workers <= 0 means GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{max: int32(workers), tasks: make(chan *task, workers)}
}

// Workers reports the pool's concurrency bound, the natural chunk-count
// cap for callers partitioning work.
func (p *Pool) Workers() int { return int(p.max) }

// Run executes fn(0..chunks-1), each chunk exactly once, spreading
// chunks across the submitting goroutine and available pool workers. It
// returns only after every chunk has completed. chunks <= 1 runs inline
// with no synchronization at all.
func (p *Pool) Run(chunks int, fn func(chunk int)) {
	if chunks <= 1 {
		if chunks == 1 {
			fn(0)
		}
		return
	}
	t := &task{chunks: int32(chunks), fn: fn}
	t.wg.Add(chunks)
	// Offer the task to at most chunks-1 helpers (the submitter works
	// too). Non-blocking: a full channel means every worker slot already
	// has work queued, and the submitter will absorb whatever is left.
	offers := chunks - 1
	if offers > int(p.max) {
		offers = int(p.max)
	}
	for i := 0; i < offers; i++ {
		select {
		case p.tasks <- t:
			p.ensureWorker()
		default:
			i = offers // channel full; stop offering
		}
	}
	t.drain()
	t.wg.Wait()
}

// drain claims and executes chunks until the cursor is exhausted.
func (t *task) drain() {
	for {
		i := t.next.Add(1) - 1
		if i >= t.chunks {
			return
		}
		t.fn(int(i))
		t.wg.Done()
	}
}

// ensureWorker spawns a worker goroutine unless the pool is already at
// its bound.
func (p *Pool) ensureWorker() {
	for {
		n := p.live.Load()
		if n >= p.max {
			return
		}
		if p.live.CompareAndSwap(n, n+1) {
			go p.worker()
			return
		}
	}
}

// worker executes queued tasks until it has been idle for workerIdle.
// Exit closes the obvious race with a submitter that enqueued just
// before the worker decremented live: the final non-blocking poll runs
// after the decrement, and the submitter's ensureWorker runs after its
// enqueue — so either the poll sees the task, or ensureWorker sees the
// decremented count and spawns a replacement.
func (p *Pool) worker() {
	timer := time.NewTimer(workerIdle)
	defer timer.Stop()
	for {
		select {
		case t := <-p.tasks:
			t.drain()
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(workerIdle)
		case <-timer.C:
			p.live.Add(-1)
			select {
			case t := <-p.tasks:
				p.live.Add(1)
				t.drain()
				timer.Reset(workerIdle)
			default:
				return
			}
		}
	}
}
