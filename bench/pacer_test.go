package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on, by the requested time plus a
// fixed overshoot.
type fakeClock struct {
	t         time.Duration
	overshoot time.Duration
	sleeps    int
}

func (c *fakeClock) now() time.Duration { return c.t }
func (c *fakeClock) sleep(d time.Duration) {
	c.t += d + c.overshoot
	c.sleeps++
}

func newFakePacer(perSecond float64, c *fakeClock) *pacer {
	p := newPacer(perSecond, c.now)
	p.sleep = c.sleep
	return p
}

func TestPacerDueTimesIgnoreLateness(t *testing.T) {
	c := &fakeClock{t: 5 * time.Second, overshoot: 30 * time.Microsecond}
	p := newFakePacer(4000, c)
	for i := int64(0); i < 100; i++ {
		due, lag := p.wait(i)
		if want := 5*time.Second + time.Duration(i)*250*time.Microsecond; due != want {
			t.Fatalf("op %d due at %v, want %v: the schedule drifted with the generator", i, due, want)
		}
		if i > 0 && lag != 30*time.Microsecond {
			t.Fatalf("op %d lag %v, want the sleep's 30µs overshoot", i, lag)
		}
	}
}

func TestPacerCatchesUpAfterStall(t *testing.T) {
	c := &fakeClock{}
	p := newFakePacer(1000, c) // 1 ms apart
	p.wait(0)
	c.t += 10 * time.Millisecond // the generator stalls
	sleeps := c.sleeps
	for i := int64(1); i <= 10; i++ {
		due, lag := p.wait(i)
		if want := c.t - due; lag != want {
			t.Fatalf("op %d lag %v, want %v", i, lag, want)
		}
		if lag <= 0 && i < 10 {
			t.Fatalf("op %d reported no lag %v into a 10 ms stall", i, time.Duration(i)*time.Millisecond)
		}
	}
	if c.sleeps != sleeps {
		t.Fatalf("slept %d times while behind schedule; overdue operations go out back to back", c.sleeps-sleeps)
	}
	if _, lag := p.wait(12); lag != 0 || c.sleeps != sleeps+1 {
		t.Fatalf("after catching up: lag %v, %d sleeps; want on time after one sleep", lag, c.sleeps-sleeps)
	}
}
