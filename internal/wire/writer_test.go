package wire

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gridmon/internal/message"
)

// startWriter starts w's goroutine and returns a channel closed when
// Run returns.
func startWriter(w *FrameWriter) <-chan struct{} {
	exited := make(chan struct{})
	go func() { w.Run(); close(exited) }()
	return exited
}

// readStream reads exactly n bytes of the writer's stream, failing
// rather than hanging if the writer sends fewer.
func readStream(t *testing.T, c net.Conn, n int) []byte {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, n)
	if m, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read %d of %d stream bytes: %v", m, n, err)
	}
	return got
}

func push(consumer int64, row string) RGMATuples {
	enc := AppendRGMATuple(nil, RGMATuple{Row: []string{row}, InsertedAt: 1})
	return RGMATuples{Consumer: consumer, Enc: [][]byte{enc}}
}

// TestFrameWriterMergeOrder pins the push-merge rule on a queue the
// writer drains in one flush: queue-adjacent Seq-0 pushes for the same
// consumer merge into one RGMATuples frame, anything else — a push for
// another consumer, an RGMAOK, a Pop reply (Seq ≠ 0) for the same
// consumer — ends the run, and order is preserved throughout. The
// stream must be byte-identical to appending the merged frames one by
// one.
func TestFrameWriterMergeOrder(t *testing.T) {
	const a, b = 7, 9
	reply := RGMATuples{Seq: 6, Consumer: a, Tuples: []RGMATuple{{Row: []string{"r"}, InsertedAt: 2}}}
	queue := []Frame{
		push(a, "1"), push(a, "2"), push(b, "1"), push(a, "3"), RGMAOK{Seq: 5}, push(a, "4"),
		reply, push(a, "5"),
	}
	merged := func(consumer int64, rows ...string) RGMATuples {
		out := RGMATuples{Consumer: consumer}
		for _, r := range rows {
			out.Enc = append(out.Enc, push(consumer, r).Enc...)
		}
		return out
	}
	var want []byte
	for _, f := range []Frame{
		merged(a, "1", "2"), merged(b, "1"), merged(a, "3"), RGMAOK{Seq: 5}, merged(a, "4"),
		reply, merged(a, "5"),
	} {
		var err error
		if want, err = AppendFrame(want, f); err != nil {
			t.Fatal(err)
		}
	}

	c1, c2 := net.Pipe()
	defer c2.Close()
	var eg EgressMeters
	w := NewFrameWriter(c1, len(queue), &eg)
	for _, f := range queue {
		if r := w.TrySend(f); r != SendOK {
			t.Fatalf("TrySend = %v, want SendOK", r)
		}
	}
	exited := startWriter(w)
	got := readStream(t, c2, len(want))
	w.Stop()
	<-exited

	if !bytes.Equal(got, want) {
		fr := NewFrameReader(bytes.NewReader(got))
		for f, err := fr.Read(); err == nil; f, err = fr.Read() {
			t.Logf("got %+v", f)
		}
		t.Fatal("merged push stream differs from the expected frames")
	}
	es := eg.Stats()
	if es.MergedPushes != 1 {
		t.Errorf("MergedPushes = %d, want 1 (A2 folded into A1)", es.MergedPushes)
	}
	if es.WriterFlushes != 1 || es.WriterFrames != uint64(len(queue)) {
		t.Errorf("flushes/frames = %d/%d, want 1/%d", es.WriterFlushes, es.WriterFrames, len(queue))
	}
}

// TestFrameWriterReleaseExactlyOnce races TrySend from several
// goroutines against the writer stopping (by Stop, or by its connection
// failing under it) and checks that both counting pools balance: every
// pooled Deliver and DeliverBatch was released exactly once, whether
// the writer wrote it, drained it at shutdown, or the sender released
// it on SendFull/SendDead (a double DeliverBatch release panics).
func TestFrameWriterReleaseExactlyOnce(t *testing.T) {
	small := batchTestMsg()
	big := message.NewText(strings.Repeat("x", 16<<10)).Freeze()
	dg0, dp0 := DeliverPoolCounters()
	bg0, bp0 := DeliverBatchPoolCounters()
	for round := 0; round < 20; round++ {
		c1, c2 := net.Pipe()
		go func() { _, _ = io.Copy(io.Discard, c2) }()
		var eg EgressMeters
		w := NewFrameWriter(c1, 4, &eg)
		exited := startWriter(w)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					switch (g + i) % 3 {
					case 0:
						d := GetDeliver()
						d.SubID, d.Tag, d.Msg = 1, int64(i), small
						w.TrySend(d)
					default:
						b := GetDeliverBatch()
						b.Msg = small
						if i%3 == 2 {
							b.Msg = big
						}
						b.Entries = append(b.Entries, DeliverEntry{SubID: 1, Tag: 1}, DeliverEntry{SubID: 2, Tag: 2})
						w.TrySend(b)
					}
				}
			}(g)
		}
		if round%2 == 0 {
			w.Stop()
		} else {
			_ = c1.Close()
		}
		wg.Wait()
		w.Stop() // a writer idle on a failed connection has not noticed yet
		<-exited
		_ = c1.Close()
		_ = c2.Close()
	}
	dg1, dp1 := DeliverPoolCounters()
	bg1, bp1 := DeliverBatchPoolCounters()
	if dg1-dg0 == 0 || dg1-dg0 != dp1-dp0 {
		t.Errorf("Deliver pool: %d gets, %d puts", dg1-dg0, dp1-dp0)
	}
	if bg1-bg0 == 0 || bg1-bg0 != bp1-bp0 {
		t.Errorf("DeliverBatch pool: %d gets, %d puts", bg1-bg0, bp1-bp0)
	}
}

// sizedMsg returns a frozen message whose cached encoding is exactly
// size bytes.
func sizedMsg(t *testing.T, size int) *message.Message {
	t.Helper()
	m := message.NewText("")
	m.Dest = message.Topic("t")
	m.SetText(strings.Repeat("x", size-m.EncodedSize()))
	if m.Freeze(); m.EncodedSize() != size {
		t.Fatalf("EncodedSize = %d, want %d", m.EncodedSize(), size)
	}
	return m
}

// TestFrameWriterSplicesBatch: a DeliverBatch goes out spliced into the
// coalescing buffer, one flush carrying every entry, whatever the size
// of its payload.
func TestFrameWriterSplicesBatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		entries int
		payload int
	}{
		{"2 entries, 16 KiB", 2, 16 << 10},
		{"1 entry, 16 KiB", 1, 16 << 10},
		{"64 entries, 379 B", 64, 379},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := GetDeliverBatch()
			b.Msg = sizedMsg(t, tc.payload)
			for i := 0; i < tc.entries; i++ {
				b.Entries = append(b.Entries, DeliverEntry{SubID: int64(i + 1), Tag: int64(i + 10)})
			}
			want, err := AppendFrame(nil, b)
			if err != nil {
				t.Fatal(err)
			}

			c1, c2 := net.Pipe()
			defer c2.Close()
			var eg EgressMeters
			w := NewFrameWriter(c1, 1, &eg)
			w.TrySend(b)
			exited := startWriter(w)
			got := readStream(t, c2, len(want))
			w.Stop()
			<-exited

			if !bytes.Equal(got, want) {
				t.Fatal("stream differs from the batch's spliced form")
			}
			if es := eg.Stats(); es.WriterFlushes != 1 || es.WriterFrames != uint64(tc.entries) {
				t.Fatalf("flushes/frames = %d/%d, want 1/%d", es.WriterFlushes, es.WriterFrames, tc.entries)
			}
		})
	}
}
