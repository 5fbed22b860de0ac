package jms

import (
	"fmt"
	"net"
	"testing"
	"time"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// fakeSubscribed dials a fake broker that answers the handshake and one
// Subscribe, and returns the subscription id and the fake's end of the
// socket with its reader. The client's listener reports each message on
// got; the client closes at the end of the test.
func fakeSubscribed(t *testing.T, got chan<- *message.Message) (int64, net.Conn, *wire.FrameReader) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	type side struct {
		nc net.Conn
		fr *wire.FrameReader
	}
	accepted := make(chan side, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		fr := wire.NewFrameReader(nc)
		if _, err := fr.Read(); err != nil {
			return
		}
		_ = wire.WriteFrame(nc, wire.Connected{BrokerID: "fake"})
		f, err := fr.Read()
		if err != nil {
			return
		}
		if sub, ok := f.(wire.Subscribe); ok {
			_ = wire.WriteFrame(nc, wire.SubOK{SubID: sub.SubID})
		}
		accepted <- side{nc, fr}
	}()
	c, err := DialTimeout(ln.Addr().String(), "c", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	id, err := c.Subscribe(message.Topic("t"), "", func(m *message.Message) { got <- m })
	if err != nil {
		t.Fatal(err)
	}
	s := <-accepted
	t.Cleanup(func() { _ = s.nc.Close() })
	_ = s.nc.SetDeadline(time.Now().Add(5 * time.Second))
	return id, s.nc, s.fr
}

// writeDelivers sends tags 1..n to subscription id in one write.
func writeDelivers(t *testing.T, nc net.Conn, id int64, n int) {
	t.Helper()
	var buf []byte
	for tag := 1; tag <= n; tag++ {
		m := message.NewText(fmt.Sprintf("m%d", tag))
		m.Dest = message.Topic("t")
		var err error
		if buf, err = wire.AppendFrame(buf, wire.Deliver{SubID: id, Tag: int64(tag), Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// TestAckBurstCoalesces: N deliveries arriving in one write are all
// acknowledged, merged into fewer than N Ack frames.
func TestAckBurstCoalesces(t *testing.T) {
	const n = 40
	got := make(chan *message.Message, n)
	id, nc, fr := fakeSubscribed(t, got)
	writeDelivers(t, nc, id, n)

	acked := map[int64]bool{}
	frames := 0
	for len(acked) < n {
		f, err := fr.Read()
		if err != nil {
			t.Fatalf("after %d Ack frames carrying %d of %d tags: %v", frames, len(acked), n, err)
		}
		a, ok := f.(wire.Ack)
		if !ok || a.SubID != id {
			t.Fatalf("client sent %v, want an Ack for subscription %d", f, id)
		}
		frames++
		for _, tag := range a.Tags {
			acked[tag] = true
		}
	}
	for tag := int64(1); tag <= n; tag++ {
		if !acked[tag] {
			t.Fatalf("tag %d never acknowledged", tag)
		}
	}
	if frames >= n {
		t.Fatalf("%d deliveries in one burst took %d Ack frames, want fewer", n, frames)
	}
	if len(got) != n {
		t.Fatalf("listener saw %d of %d messages", len(got), n)
	}
}

// TestAckBurstFlushesBeforeBlocking: a lone delivery is acknowledged
// without a second one to push it out — the client writes its acks
// before its read blocks.
func TestAckBurstFlushesBeforeBlocking(t *testing.T) {
	got := make(chan *message.Message, 1)
	id, nc, fr := fakeSubscribed(t, got)
	writeDelivers(t, nc, id, 1)
	f, err := fr.Read()
	if err != nil {
		t.Fatalf("no ack for a lone delivery: %v", err)
	}
	if a, ok := f.(wire.Ack); !ok || a.SubID != id || len(a.Tags) != 1 || a.Tags[0] != 1 {
		t.Fatalf("client sent %v, want Ack{%d, [1]}", f, id)
	}
}
