package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around a client call or from a message's send stamp to its
// callback. Times are nanoseconds since the run's epoch. Trace groups the
// spans of one message (its sequence number, or -1 for calls that belong
// to no message); Parent is the span that caused this one (0 for none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// sendSpanID is the id of the span around the client call that sent
// message seq. It is computable on the receiving side, which names it as
// the parent of the delivery span without sharing memory with the sender.
func sendSpanID(seq int64) int64 { return seq + 1 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  int64 // ids for spans that are not send spans count down from -1
}

// maxSpans caps a traced run's memory; later spans are counted, not kept.
const maxSpans = 400_000

func (t *tracer) add(parent, trace int64, name string, start, end time.Duration) {
	t.addID(0, parent, trace, name, start, end)
}

// addID records a span with a caller-chosen id (0 = allocate one).
func (t *tracer) addID(id, parent, trace int64, name string, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		if id == 0 {
			t.next--
			id = t.next
		}
		t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: int64(start), End: int64(end)})
	}
	t.mu.Unlock()
}

// durations returns the lengths, in nanoseconds, of every span called
// name that started in [from, to).
func (t *tracer) durations(name string, from, to time.Duration) []int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, s := range t.spans {
		if s.Name == name && s.Start >= int64(from) && s.Start < int64(to) {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
