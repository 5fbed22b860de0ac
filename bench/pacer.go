package main

import (
	"syscall"
	"time"
)

// pacer is the open-loop scheduler: operation i is due at i × interval
// after the pacer starts, whatever happened to the operations before it.
// A generator that falls behind sends the overdue operations back to
// back, and every operation is timed from when it was due, so a stall
// charges the wait it imposes on later operations instead of hiding it.
type pacer struct {
	interval time.Duration
	// now reports time since the pacer's epoch and sleep blocks for d;
	// tests substitute a fake clock.
	now   func() time.Duration
	sleep func(time.Duration)
	start time.Duration
}

func newPacer(perSecond float64, now func() time.Duration) *pacer {
	return &pacer{
		interval: time.Duration(float64(time.Second) / perSecond),
		now:      now,
		sleep:    nanosleep,
		start:    now(),
	}
}

// wait blocks until operation i is due. It returns the due time and how
// late the generator is releasing it (zero when the sleep ended on time).
func (p *pacer) wait(i int64) (due, lag time.Duration) {
	due = p.start + time.Duration(i)*p.interval
	if d := due - p.now(); d > 0 {
		p.sleep(d)
	}
	return due, max(p.now()-due, 0)
}

// nanosleep blocks the calling thread in nanosleep(2). time.Sleep will not
// do for a sub-millisecond schedule: the Go runtime parks its timer thread
// in epoll_wait, whose timeout is whole milliseconds, so a 250 µs sleep
// returns after about 1.1 ms; nanosleep returns within 0.1 ms.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
