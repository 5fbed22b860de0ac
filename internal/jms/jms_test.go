package jms

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

func startServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s, err := ListenAndServe("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// startServerWriteBuffer is startServer with client writer queues of n
// frames.
func startServerWriteBuffer(t *testing.T, n int) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(ln, ServerConfig{}, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func dial(t *testing.T, s *Server, id string) *Connection {
	t.Helper()
	c, err := Dial(s.Addr(), id)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

func TestTCPPubSubRoundTrip(t *testing.T) {
	s := startServer(t, ServerConfig{})
	sub := dial(t, s, "sub")
	pub := dial(t, s, "pub")
	if sub.BrokerID() != "naradad" {
		t.Fatalf("broker id = %q", sub.BrokerID())
	}

	var got atomic.Int64
	var mu sync.Mutex
	var lastPower float64
	if _, err := sub.Subscribe(message.Topic("power"), "id < 10000", func(m *message.Message) {
		v, _ := m.MapGet("power")
		f, _ := v.AsDouble()
		mu.Lock()
		lastPower = f
		mu.Unlock()
		got.Add(1)
	}); err != nil {
		t.Fatal(err)
	}

	m := message.NewMap()
	m.Dest = message.Topic("power")
	m.SetProperty("id", message.Int(42))
	m.MapSet("power", message.Double(1.5))
	if err := pub.PublishSync(m); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 })
	mu.Lock()
	defer mu.Unlock()
	if lastPower != 1.5 {
		t.Fatalf("payload power = %v", lastPower)
	}
}

func TestTCPSelectorFilters(t *testing.T) {
	s := startServer(t, ServerConfig{})
	sub := dial(t, s, "sub")
	pub := dial(t, s, "pub")
	var got atomic.Int64
	if _, err := sub.Subscribe(message.Topic("t"), "kind = 'a'", func(*message.Message) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"a", "b", "a"} {
		m := message.NewText("x")
		m.Dest = message.Topic("t")
		m.SetProperty("kind", message.String(kind))
		if err := pub.PublishSync(m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return got.Load() == 2 })
	time.Sleep(50 * time.Millisecond)
	if got.Load() != 2 {
		t.Fatalf("got %d, want 2", got.Load())
	}
}

func TestTCPInvalidSelectorRejected(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := dial(t, s, "c")
	if _, err := c.Subscribe(message.Topic("t"), "id <", nil); !errors.Is(err, ErrSubRejected) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPQueueRoundRobin(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c1 := dial(t, s, "c1")
	c2 := dial(t, s, "c2")
	pub := dial(t, s, "pub")
	var n1, n2 atomic.Int64
	if _, err := c1.Subscribe(message.Queue("work"), "", func(*message.Message) { n1.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Subscribe(message.Queue("work"), "", func(*message.Message) { n2.Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m := message.NewText("job")
		m.Dest = message.Queue("work")
		if err := pub.PublishSync(m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return n1.Load()+n2.Load() == 10 })
	if n1.Load() != 5 || n2.Load() != 5 {
		t.Fatalf("split %d/%d, want 5/5", n1.Load(), n2.Load())
	}
}

func TestTCPUnsubscribe(t *testing.T) {
	s := startServer(t, ServerConfig{})
	sub := dial(t, s, "sub")
	pub := dial(t, s, "pub")
	var got atomic.Int64
	id, err := sub.Subscribe(message.Topic("t"), "", func(*message.Message) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	m := message.NewText("x")
	m.Dest = message.Topic("t")
	if err := pub.PublishSync(m); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("unsubscribed listener fired")
	}
}

func TestTCPDurableSubscription(t *testing.T) {
	s := startServer(t, ServerConfig{})
	pub := dial(t, s, "pub")

	c1, err := Dial(s.Addr(), "durable-client")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.SubscribeDurable(message.Topic("t"), "", "d1", nil); err != nil {
		t.Fatal(err)
	}
	_ = c1.Close()

	// Publish while the durable subscriber is away.
	waitFor(t, func() bool { return s.Stats().Connections == 1 })
	m := message.NewText("missed-you")
	m.Dest = message.Topic("t")
	if err := pub.PublishSync(m); err != nil {
		t.Fatal(err)
	}

	var got atomic.Int64
	c2 := dial(t, s, "durable-client")
	if _, err := c2.SubscribeDurable(message.Topic("t"), "", "d1", func(m *message.Message) {
		if m.Text() == "missed-you" {
			got.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 })
}

func TestTCPClientAckMode(t *testing.T) {
	s := startServer(t, ServerConfig{})
	sub := dial(t, s, "sub")
	sub.SetAckMode(message.ClientAck)
	pub := dial(t, s, "pub")
	var got atomic.Int64
	if _, err := sub.Subscribe(message.Topic("t"), "", func(*message.Message) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	m := message.NewText("x")
	m.Dest = message.Topic("t")
	if err := pub.PublishSync(m); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 })
	// Unacknowledged: broker still holds the delivery.
	waitFor(t, func() bool { return s.Stats().Delivered == 1 })
	if s.Stats().Acked != 0 {
		t.Fatal("delivery acked before Acknowledge")
	}
	if err := sub.Acknowledge(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Acked == 1 })
}

func TestTCPPing(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := dial(t, s, "c")
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPConnectionLimit(t *testing.T) {
	s := startServer(t, ServerConfig{MaxConnMemory: 2 * memPerConn})
	c1 := dial(t, s, "c1")
	c2 := dial(t, s, "c2")
	_ = c1.Ping()
	_ = c2.Ping()
	// Third connection is admitted at TCP level then closed by the
	// broker: the dial fails as soon as the socket does, not when its
	// timeout runs out.
	start := time.Now()
	_, err := DialTimeout(s.Addr(), "c3", 5*time.Second)
	if !errors.Is(err, ErrNotConnected) {
		t.Fatalf("third connection: err = %v, want ErrNotConnected", err)
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("refused dial returned after %v, want within 1s", took)
	}
	waitFor(t, func() bool { return s.Stats().RefusedConns >= 1 })
}

func TestTCPConcurrentPublishers(t *testing.T) {
	s := startServer(t, ServerConfig{})
	sub := dial(t, s, "sub")
	var got atomic.Int64
	if _, err := sub.Subscribe(message.Topic("t"), "", func(*message.Message) { got.Add(1) }); err != nil {
		t.Fatal(err)
	}
	const pubs, each = 8, 25
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		c := dial(t, s, "pub")
		go func(c *Connection) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m := message.NewText("x")
				m.Dest = message.Topic("t")
				if err := c.PublishSync(m); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	waitFor(t, func() bool { return got.Load() == pubs*each })
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	s := startServer(t, ServerConfig{})
	c := dial(t, s, "c")
	s.Close()
	waitFor(t, func() bool {
		m := message.NewText("x")
		m.Dest = message.Topic("t")
		return c.Publish(m) != nil
	})
}

// TestDeadConnFailsWaiters: a connection that dies under pending
// requests fails every one of them with ErrClosed at once, whatever its
// kind — not with a timeout, and not as a rejected subscription. Three
// goroutines share one connection; the fake server answers the
// handshake, reads their three requests, and hangs up.
func TestDeadConnFailsWaiters(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
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
		if err := wire.WriteFrame(nc, wire.Connected{BrokerID: "fake"}); err != nil {
			return
		}
		for range 3 {
			if _, err := fr.Read(); err != nil {
				return
			}
		}
	}()

	const timeout = 3 * time.Second
	c, err := DialTimeout(ln.Addr().String(), "c", timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := message.NewText("x")
	m.Dest = message.Topic("t")
	requests := map[string]func() error{
		"Ping":        c.Ping,
		"PublishSync": func() error { return c.PublishSync(m) },
		"Subscribe": func() error {
			_, err := c.Subscribe(message.Topic("t"), "", nil)
			return err
		},
	}
	var wg sync.WaitGroup
	for name, req := range requests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			err := req()
			if took := time.Since(start); !errors.Is(err, ErrClosed) || took >= timeout/2 {
				t.Errorf("%s on a dead connection: %v after %v, want ErrClosed at once", name, err, took)
			}
		}()
	}
	wg.Wait()
}

// TestCloseWaitsForTeardown: once Close returns, every connection's
// teardown has run, so the broker holds no connection and a persister
// may dump it at once.
func TestCloseWaitsForTeardown(t *testing.T) {
	s := startServer(t, ServerConfig{})
	for i := range 8 {
		c := dial(t, s, fmt.Sprintf("sub%d", i))
		if _, err := c.Subscribe(message.Topic("power"), "id < 10000", func(*message.Message) {}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return s.Stats().Connections == 8 })
	s.Close()
	if n := s.Stats().Connections; n != 0 {
		t.Fatalf("%d connections still open in the broker after Close", n)
	}
}

// TestTCPRepublishReceivedMessage: a received message is frozen, and
// publishing it again sends a clone with a new ID and Timestamp rather
// than the bytes it arrived in; the received message stays as it was.
func TestTCPRepublishReceivedMessage(t *testing.T) {
	s := startServer(t, ServerConfig{})
	sub := dial(t, s, "sub")
	pub := dial(t, s, "pub")
	var mu sync.Mutex
	var got []*message.Message
	if _, err := sub.Subscribe(message.Topic("power"), "", func(m *message.Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	received := func() []*message.Message {
		mu.Lock()
		defer mu.Unlock()
		return append([]*message.Message(nil), got...)
	}

	m := message.NewMap()
	m.ID = "ID:original"
	m.Dest = message.Topic("power")
	m.MapSet("power", message.Double(1.5))
	if err := pub.PublishSync(m); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(received()) == 1 })
	first := received()[0]
	if !first.Frozen() {
		t.Fatal("received message is not frozen")
	}
	id, ts := first.ID, first.Timestamp
	time.Sleep(time.Millisecond) // a later send time on any clock
	if err := pub.PublishSync(first); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(received()) == 2 })
	second := received()[1]
	if second.ID == id || second.ID == "" {
		t.Fatalf("republished message ID = %q, want a new one (was %q)", second.ID, id)
	}
	if second.Timestamp <= ts {
		t.Fatalf("republished Timestamp %d, want after %d", second.Timestamp, ts)
	}
	if v, _ := second.MapGet("power"); !v.Equal(message.Double(1.5)) {
		t.Fatalf("republished payload power = %v", v)
	}
	if first.ID != id || first.Timestamp != ts {
		t.Fatal("republishing changed the received message")
	}
}
