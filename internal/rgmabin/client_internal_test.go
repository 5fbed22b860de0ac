package rgmabin

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gridmon/internal/rgmacore"
)

// TestClientSendBufferCapped: a large InsertBatch must not leave the
// client holding its encode buffer for the connection's lifetime — what
// it keeps between frames is capped at 64 KiB, as on the JMS client.
func TestClientSendBufferCapped(t *testing.T) {
	s := NewServer(rgmacore.New(rgmacore.Config{Shards: 1}), Config{})
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
