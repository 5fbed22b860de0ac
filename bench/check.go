package main

import "slices"

// stream checks one ordered delivery stream — the deliveries one
// subscription receives from one publisher. Delivery number n must carry
// the value the stream's rule gives for position n:
//
//   - arithmetic (table == nil, ring == 0): first + n×stride;
//   - cyclic (ring > 0): n mod ring, for a producer that cycles through a
//     ring of inputs;
//   - cyclic over a subset (table != nil): table[n mod len(table)] with
//     ring the length of the full cycle the table indexes into.
//
// A value at a position already passed is a duplicate (or arrived out of
// order after the gap it left was counted); a value ahead of the expected
// position opens a gap; a value no position carries is foreign. A stream
// is used by one goroutine at a time.
type stream struct {
	first, stride int64
	ring          int64
	table         []int32

	n                   int64 // next expected position
	dups, gaps, foreign int64
}

// position maps a delivered value back to the stream position that
// carries it; for cyclic streams, the occurrence nearest the expected
// position.
func (s *stream) position(v int64) (int64, bool) {
	if s.ring == 0 {
		d := v - s.first
		if d < 0 || d%s.stride != 0 {
			return 0, false
		}
		return d / s.stride, true
	}
	if v < 0 || v >= s.ring {
		return 0, false
	}
	idx, cycle := v, s.ring
	if s.table != nil {
		i, ok := slices.BinarySearch(s.table, int32(v))
		if !ok {
			return 0, false
		}
		idx, cycle = int64(i), int64(len(s.table))
	}
	p := s.n - s.n%cycle + idx
	if p < s.n-cycle/2 {
		p += cycle
	} else if p > s.n+cycle/2 && p >= cycle {
		p -= cycle
	}
	return p, true
}

// observe checks one delivery and reports whether it was the expected
// one.
func (s *stream) observe(v int64) bool {
	p, ok := s.position(v)
	switch {
	case !ok:
		s.foreign++
	case p == s.n:
		s.n++
		return true
	case p < s.n:
		s.dups++
	default:
		s.gaps += p - s.n
		s.n = p + 1
	}
	return false
}

// failures closes the stream against the number of deliveries it should
// have seen and returns every delivery that was missing, repeated, out of
// order or foreign.
func (s *stream) failures(expected int64) int64 {
	f := s.dups + s.gaps + s.foreign
	if s.n < expected {
		f += expected - s.n // the tail never arrived
	} else {
		f += s.n - expected // deliveries nobody sent
	}
	return f
}

// window bounds the operations a closed loop has in flight: acquire
// blocks while the bound is reached, release frees one slot. Waiting is
// on a channel, so a blocked sender costs no CPU.
type window chan struct{}

func newWindow(n int) window {
	w := make(window, n) // one token per in-flight slot
	for range n {
		w <- struct{}{}
	}
	return w
}

// acquire takes a slot, or reports false once stop is closed.
func (w window) acquire(stop <-chan struct{}) bool {
	select {
	case <-w:
		return true
	case <-stop:
		return false
	}
}

// release returns a slot. A release beyond the bound (a duplicate
// delivery completing the same operation twice) is dropped; the checker
// reports the duplicate.
func (w window) release() {
	select {
	case w <- struct{}{}:
	default:
	}
}
