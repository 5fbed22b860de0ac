package main

import (
	"testing"
	"time"
)

func feed(s *stream, vs ...int64) {
	for _, v := range vs {
		s.observe(v)
	}
}

func TestStreamAcceptsExpectedSequence(t *testing.T) {
	s := stream{first: 3, stride: 1000} // match_churn: generator slot 3, once per lap
	feed(&s, 3, 1003, 2003, 3003)
	if f := s.failures(4); f != 0 {
		t.Fatalf("clean stream reported %d failures", f)
	}
}

func TestStreamCatchesInjectedFaults(t *testing.T) {
	for _, c := range []struct {
		name     string
		seq      []int64
		expected int64
	}{
		{"duplicate", []int64{0, 1, 2, 2, 3}, 4},
		{"gap", []int64{0, 1, 3, 4}, 5},
		{"reorder", []int64{0, 2, 1, 3}, 4},
		{"lost tail", []int64{0, 1, 2}, 5},
		{"foreign value", []int64{0, 1, -7, 2}, 3},
		{"never sent", []int64{0, 1, 2, 3}, 3},
	} {
		s := stream{stride: 1}
		feed(&s, c.seq...)
		if f := s.failures(c.expected); f == 0 {
			t.Errorf("%s %v passed the checker", c.name, c.seq)
		}
	}
	// Two publishers interleaved on one subscription: each keeps its order.
	a, b := stream{first: 0, stride: 2}, stream{first: 1, stride: 2}
	feed(&a, 0, 2, 4)
	feed(&b, 1, 3, 5)
	if a.failures(3)+b.failures(3) != 0 {
		t.Error("interleaved publishers reported failures")
	}
	if b.observe(4) {
		t.Error("publisher 0's message accepted on publisher 1's stream")
	}
}

func TestStreamCyclic(t *testing.T) {
	// A ring of 8 inputs of which 1, 4 and 6 match the consumer's query.
	s := stream{ring: 8, table: []int32{1, 4, 6}}
	feed(&s, 1, 4, 6, 1, 4, 6, 1)
	if f := s.failures(7); f != 0 {
		t.Fatalf("clean cyclic stream reported %d failures (%+v)", f, s)
	}
	if s.observe(5) || s.foreign != 1 {
		t.Error("a tuple the query does not match was accepted")
	}
	s = stream{ring: 8, table: []int32{1, 4, 6}}
	feed(&s, 1, 6) // 4 went missing
	if s.gaps != 1 {
		t.Errorf("gaps = %d, want 1", s.gaps)
	}
	s = stream{ring: 8}
	feed(&s, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 1)
	if s.dups != 1 || s.n != 10 {
		t.Errorf("poll stream: dups %d n %d, want 1 and 10", s.dups, s.n)
	}
}

func TestWindowBoundsInFlight(t *testing.T) {
	w := newWindow(2)
	stop := make(chan struct{})
	if !w.acquire(stop) || !w.acquire(stop) {
		t.Fatal("could not take the two free slots")
	}
	got := make(chan bool)
	go func() { got <- w.acquire(stop) }()
	select {
	case <-got:
		t.Fatal("a third acquire went through a window of two")
	case <-time.After(20 * time.Millisecond):
	}
	w.release()
	if !<-got {
		t.Fatal("release did not admit the waiting sender")
	}
	go func() { got <- w.acquire(stop) }()
	close(stop)
	if <-got {
		t.Fatal("acquire succeeded after stop with no free slot")
	}
	w.release()
	w.release()
	w.release() // beyond the bound: dropped, not blocked
}
