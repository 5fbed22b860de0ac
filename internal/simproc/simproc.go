// Package simproc models the compute resources of a testbed node: a serial
// CPU with a run queue, a bounded heap, and a vmstat-style sampler.
//
// The paper's Hydra nodes are single-socket Pentium III machines running a
// JVM: middleware work executes on one effective core, each client
// connection costs a thread stack, and the JVM heap is capped at 1 GB
// ("-Xms1024m -Xmx1024m"). Those three properties produce the paper's
// observable behaviour — RTT that grows smoothly with load (CPU queueing),
// CPU idle that falls with connection count, and hard out-of-memory cliffs
// near 4000 connections (NaradaBrokering) and 800 connections (R-GMA). This
// package reproduces exactly those mechanisms and nothing more.
package simproc

import (
	"errors"
	"fmt"
	"sync/atomic"

	"gridmon/internal/sim"
)

// ErrOutOfMemory is returned by Heap.Alloc when an allocation would exceed
// the heap limit, mirroring the JVM OutOfMemoryError the paper hit when a
// broker "ran out of memory to create new threads".
var ErrOutOfMemory = errors.New("simproc: out of memory")

// CPU is a serial processor with FIFO queueing. Submitted work items run
// one at a time; each occupies the processor for its service cost. Speed
// scales service costs: a Speed of 0.5 makes every job take twice as long,
// which is how slower testbed nodes are modelled.
type CPU struct {
	k     *sim.Kernel
	name  string
	speed float64

	busyUntil   sim.Time
	segStart    sim.Time // start of the current contiguous busy segment
	accumBefore sim.Time // busy time from segments that ended before segStart
	jobs        uint64
}

// NewCPU returns a CPU attached to kernel k. speed must be positive; 1.0
// means service costs are taken at face value.
func NewCPU(k *sim.Kernel, name string, speed float64) *CPU {
	if speed <= 0 {
		panic("simproc: non-positive CPU speed")
	}
	return &CPU{k: k, name: name, speed: speed}
}

// Name returns the node name the CPU belongs to.
func (c *CPU) Name() string { return c.name }

// Jobs reports how many work items have been submitted.
func (c *CPU) Jobs() uint64 { return c.jobs }

// BusyTime reports the total virtual time the CPU has spent executing work
// up to now. Work that is queued or still executing contributes only the
// portion that lies in the past, so window-based utilisation sampling is
// exact.
func (c *CPU) BusyTime() sim.Time {
	now := c.k.Now()
	end := c.busyUntil
	if now < end {
		end = now
	}
	cur := sim.Time(0)
	if end > c.segStart {
		cur = end - c.segStart
	}
	return c.accumBefore + cur
}

// scaled converts a nominal cost into this CPU's service time.
func (c *CPU) scaled(cost sim.Time) sim.Time {
	return sim.Time(float64(cost) / c.speed)
}

// Submit enqueues a work item with the given nominal service cost and runs
// fn when the item completes (after any queueing delay plus the scaled
// cost). It returns the completion time. fn may be nil when only the
// resource usage matters.
func (c *CPU) Submit(cost sim.Time, fn func()) sim.Time {
	if cost < 0 {
		panic("simproc: negative CPU cost")
	}
	now := c.k.Now()
	svc := c.scaled(cost)
	if c.busyUntil <= now {
		// CPU is idle: close the previous busy segment and start a new one.
		c.accumBefore += c.busyUntil - c.segStart
		c.segStart = now
		c.busyUntil = now + svc
	} else {
		c.busyUntil += svc
	}
	done := c.busyUntil
	c.jobs++
	if fn == nil {
		fn = func() {}
	}
	c.k.At(done, fn)
	return done
}

// QueueDelay reports how long a job submitted now would wait before it
// begins executing.
func (c *CPU) QueueDelay() sim.Time {
	now := c.k.Now()
	if c.busyUntil <= now {
		return 0
	}
	return c.busyUntil - now
}

// Utilization reports the busy fraction over [since, now]. It returns 0
// for an empty window.
func (c *CPU) Utilization(since sim.Time) float64 {
	// This uses total accumulated busy time, so callers that want a true
	// window must sample BusyTime at window boundaries; Sampler does that.
	window := c.k.Now() - since
	if window <= 0 {
		return 0
	}
	u := float64(c.BusyTime()) / float64(window)
	if u > 1 {
		u = 1
	}
	return u
}

// Heap models a bounded memory allocator with peak tracking. Sizes are in
// bytes. The zero value is unusable; construct with NewHeap.
//
// Alloc and Free are lock-free (CAS on the usage counter), so one heap
// serves both the single-goroutine simulator and bindings that account
// memory from many goroutines at once — the TCP broker charges delivery
// memory from every connection and admission from the accept loop
// concurrently.
type Heap struct {
	name  string
	limit int64
	base  int64 // resident baseline (middleware itself), reported in Used
	used  atomic.Int64
	peak  atomic.Int64
	fails atomic.Uint64
}

// NewHeap returns a heap with the given byte limit (0 means unlimited) and
// a resident baseline that is counted against the limit immediately.
func NewHeap(name string, limit, baseline int64) *Heap {
	h := &Heap{name: name, limit: limit, base: baseline}
	h.used.Store(baseline)
	h.peak.Store(baseline)
	return h
}

// Alloc reserves n bytes. It fails with ErrOutOfMemory when the limit would
// be exceeded, leaving usage unchanged. The limit check and the
// reservation are one atomic step, so concurrent allocators can never
// jointly overshoot the limit.
func (h *Heap) Alloc(n int64) error {
	if n < 0 {
		panic("simproc: negative allocation")
	}
	if h.limit <= 0 {
		// Unlimited heap: no limit check to make atomic, so a plain
		// add avoids the CAS retry loop on the delivery hot path.
		h.raisePeak(h.used.Add(n))
		return nil
	}
	for {
		cur := h.used.Load()
		if cur+n > h.limit {
			h.fails.Add(1)
			return fmt.Errorf("%w: %s: %d + %d > limit %d", ErrOutOfMemory, h.name, cur, n, h.limit)
		}
		if h.used.CompareAndSwap(cur, cur+n) {
			h.raisePeak(cur + n)
			return nil
		}
	}
}

func (h *Heap) raisePeak(used int64) {
	for {
		p := h.peak.Load()
		if used <= p || h.peak.CompareAndSwap(p, used) {
			return
		}
	}
}

// Free releases n bytes. Freeing below the resident baseline panics: it
// indicates unbalanced accounting in a model or binding.
func (h *Heap) Free(n int64) {
	if n < 0 {
		panic("simproc: negative free")
	}
	if after := h.used.Add(-n); after < h.base {
		panic(fmt.Sprintf("simproc: heap %s freed below baseline (%d < %d)", h.name, after, h.base))
	}
}

// Used reports current usage including the baseline.
func (h *Heap) Used() int64 { return h.used.Load() }

// Peak reports the highest usage observed.
func (h *Heap) Peak() int64 { return h.peak.Load() }

// Limit reports the configured limit (0 = unlimited).
func (h *Heap) Limit() int64 { return h.limit }

// Failures reports how many allocations were refused.
func (h *Heap) Failures() uint64 { return h.fails.Load() }

// Consumption reports peak minus baseline — the paper's "memory
// consumption ... difference between peak and bottom values".
func (h *Heap) Consumption() int64 { return h.peak.Load() - h.base }

// Sample is one vmstat-style observation.
type Sample struct {
	At       sim.Time
	CPUIdle  float64 // idle fraction of the sampling window, 0..1
	MemUsed  int64   // heap bytes in use at the sample instant
	MemPeak  int64
	CPUJobs  uint64
	QueueLag sim.Time
}

// Sampler periodically records CPU and heap state, like the vmstat runs in
// the paper's experiments.
type Sampler struct {
	cpu     *CPU
	heap    *Heap
	ticker  *sim.Ticker
	samples []Sample

	lastBusy sim.Time
	lastAt   sim.Time
}

// NewSampler starts sampling cpu and heap every period, beginning one
// period into the run. Stop the returned sampler to cease collection.
func NewSampler(k *sim.Kernel, cpu *CPU, heap *Heap, period sim.Time) *Sampler {
	s := &Sampler{cpu: cpu, heap: heap, lastAt: k.Now(), lastBusy: cpu.BusyTime()}
	s.ticker = k.Every(k.Now()+period, period, func() {
		now := k.Now()
		window := now - s.lastAt
		idle := 1.0
		if window > 0 {
			busy := float64(cpu.BusyTime()-s.lastBusy) / float64(window)
			if busy > 1 {
				busy = 1
			}
			idle = 1 - busy
		}
		s.samples = append(s.samples, Sample{
			At:       now,
			CPUIdle:  idle,
			MemUsed:  heap.Used(),
			MemPeak:  heap.Peak(),
			CPUJobs:  cpu.Jobs(),
			QueueLag: cpu.QueueDelay(),
		})
		s.lastAt = now
		s.lastBusy = cpu.BusyTime()
	})
	return s
}

// Stop ends collection.
func (s *Sampler) Stop() { s.ticker.Stop() }

// Samples returns all collected observations.
func (s *Sampler) Samples() []Sample { return s.samples }

// MeanIdle reports the average CPU idle fraction across all samples
// (1.0 when nothing was sampled), matching the paper's "CPU idle time was
// calculated as the average of CPU idle time during the tests".
func (s *Sampler) MeanIdle() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	var sum float64
	for _, sm := range s.samples {
		sum += sm.CPUIdle
	}
	return sum / float64(len(s.samples))
}
