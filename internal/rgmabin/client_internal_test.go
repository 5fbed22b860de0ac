package rgmabin

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"gridmon/internal/rgmacore"
	"gridmon/internal/wire"
)

// TestClientSendBufferCapped: a large InsertBatch must not leave the
// client holding its encode buffer for the connection's lifetime — what
// it keeps between frames is capped at 64 KiB, as on the JMS client.
func TestClientSendBufferCapped(t *testing.T) {
	s := NewServer(rgmacore.New(rgmacore.Config{}))
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable("CREATE TABLE blob (id INTEGER PRIMARY KEY, pad VARCHAR(2000))"); err != nil {
		t.Fatal(err)
	}
	p, err := c.CreatePrimaryProducer("blob", time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 1000)
	batch := make([]string, 1024) // ≈ 1 MiB of statements in one frame
	for i := range batch {
		batch[i] = fmt.Sprintf("INSERT INTO blob (id, pad) VALUES (%d, '%s')", i, pad)
	}
	if err := p.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if n := cap(c.wbuf); n > 64<<10 {
		t.Fatalf("client kept a %d-byte send buffer after a 1 MiB batch, want ≤ 64 KiB", n)
	}
}

// TestDialHandshakeSharesReader: a push that arrives in the same write
// as the welcome reaches its consumer — the read loop keeps the reader
// that read the handshake, and whatever it had buffered.
func TestDialHandshakeSharesReader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		fr := wire.NewFrameReader(nc)
		if _, err := fr.Read(); err != nil {
			return
		}
		buf, _ := wire.AppendFrame(nil, wire.RGMAWelcome{ServerID: "fake"})
		buf, _ = wire.AppendFrame(buf, wire.RGMATuples{Consumer: 7, Tuples: []wire.RGMATuple{{Row: []string{"1"}, InsertedAt: 5}}})
		if _, err := nc.Write(buf); err != nil {
			return
		}
		_, _ = fr.Read() // hold the connection until the client closes
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pushed := func() bool {
		c.mu.Lock()
		cs := c.consumers[7]
		c.mu.Unlock()
		if cs == nil {
			return false
		}
		cs.mu.Lock()
		defer cs.mu.Unlock()
		return len(cs.orphan) == 1 && cs.orphan[0].InsertedAt == 5
	}
	for deadline := time.Now().Add(5 * time.Second); !pushed(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the push sent with the welcome never arrived")
		}
	}
}
