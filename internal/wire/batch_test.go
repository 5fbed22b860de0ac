package wire

import (
	"bytes"
	"testing"

	"gridmon/internal/message"
)

func batchTestMsg() *message.Message {
	m := message.NewText("batched payload")
	m.ID = "ID:batch/1"
	m.Dest = message.Topic("t")
	m.SetProperty("id", message.Int(7))
	return m.Freeze()
}

// TestDeliverBatchStreamEquivalence: the batch's stream form must be
// byte-identical to appending the equivalent per-subscriber Deliver
// frames — the client cannot tell batched emission happened.
func TestDeliverBatchStreamEquivalence(t *testing.T) {
	m := batchTestMsg()
	b := &DeliverBatch{Msg: m, Entries: []DeliverEntry{
		{SubID: 1, Tag: 10}, {SubID: 2, Tag: 20}, {SubID: 9, Tag: 1},
	}}

	got, err := AppendFrame(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, e := range b.Entries {
		want, err = AppendFrame(want, &Deliver{SubID: e.SubID, Tag: e.Tag, Msg: m})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch stream form differs from per-frame emission:\n%x\n%x", got, want)
	}

}

// TestDeliverBatchDecodes: a FrameReader at the far end of a batched
// write sees ordinary Deliver frames, in entry order.
func TestDeliverBatchDecodes(t *testing.T) {
	m := batchTestMsg()
	b := &DeliverBatch{Msg: m, Entries: []DeliverEntry{{SubID: 3, Tag: 1}, {SubID: 4, Tag: 2}}}
	buf, err := AppendFrame(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(bytes.NewReader(buf))
	for i, e := range b.Entries {
		f, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		d, ok := f.(Deliver)
		if !ok {
			t.Fatalf("frame %d decoded as %T", i, f)
		}
		if d.SubID != e.SubID || d.Tag != e.Tag || d.Msg.ID != m.ID {
			t.Fatalf("frame %d = %+v, want entry %+v", i, d, e)
		}
	}
}

// TestDeliverBatchSize: a batch encodes to exactly the bytes of its
// per-entry Deliver frames, and FrameCount counts the batch as the
// frames the client receives.
func TestDeliverBatchSize(t *testing.T) {
	m := batchTestMsg()
	b := &DeliverBatch{Msg: m, Entries: []DeliverEntry{{1, 1}, {2, 2}, {3, 3}}}
	buf, err := AppendFrame(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * (4 + Size(Deliver{SubID: 1, Tag: 1, Msg: m}))
	if len(buf) != want {
		t.Fatalf("len(batch encoding) = %d, want %d", len(buf), want)
	}
	if got := FrameCount(b); got != 3 {
		t.Fatalf("FrameCount(batch) = %d, want 3", got)
	}
	if got := FrameCount(PubAck{}); got != 1 {
		t.Fatalf("FrameCount(PubAck) = %d, want 1", got)
	}
}

// TestDeliverBatchPoolExactlyOnce: the counting pool balances on the
// happy path and panics on a double release.
func TestDeliverBatchPoolExactlyOnce(t *testing.T) {
	g0, p0 := DeliverBatchPoolCounters()
	b := GetDeliverBatch()
	b.Msg = batchTestMsg()
	b.Entries = append(b.Entries, DeliverEntry{1, 1})
	PutDeliverBatch(b)
	g1, p1 := DeliverBatchPoolCounters()
	if g1-g0 != 1 || p1-p0 != 1 {
		t.Fatalf("counters moved by get=%d put=%d, want 1/1", g1-g0, p1-p0)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("double PutDeliverBatch did not panic")
		}
	}()
	PutDeliverBatch(b)
}
