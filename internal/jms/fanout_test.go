package jms

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Transport-level coverage of batched fan-out: DeliverBatch emission
// over real sockets, slow-consumer drops fired from inside a batched
// run, and exactly-once release of pooled DeliverBatch envelopes on the
// partial-failure paths (the counting pool in internal/wire — gets vs
// puts — is the leak detector).

// TestBatchedFanoutDelivery subscribes enough listeners (spread over
// two client connections) to push every publish over the batching
// threshold, and checks that all deliveries arrive through the batched
// path: the broker must report >1 frames per egress flush, the
// transport >1 frames per socket flush, and every listener must see
// every message.
func TestBatchedFanoutDelivery(t *testing.T) {
	s := startServer(t, ServerConfig{})
	subA := dial(t, s, "subA")
	subB := dial(t, s, "subB")
	pub := dial(t, s, "pub")

	const subsPerConn = 40 // 80 total, over the default threshold of 64
	const msgs = 20
	var got atomic.Int64
	for _, c := range []*Connection{subA, subB} {
		for i := 0; i < subsPerConn; i++ {
			if _, err := c.Subscribe(message.Topic("wide"), "", func(m *message.Message) {
				got.Add(1)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < msgs; i++ {
		m := message.NewText(fmt.Sprintf("m%d", i))
		m.Dest = message.Topic("wide")
		if err := pub.Publish(m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return got.Load() == 2*subsPerConn*msgs })

	if f := s.Stats().EgressFramesPerFlush(); f <= 1 {
		t.Fatalf("broker egress not coalescing: %.2f frames/flush", f)
	}
	if es := s.EgressStats(); es.FramesPerFlush <= 1 {
		t.Fatalf("transport egress not coalescing: %+v", es)
	}
}

// stalledClient speaks just enough of the protocol to subscribe and
// then never reads its socket again — the canonical slow consumer.
type stalledClient struct {
	nc net.Conn
}

func newStalledClient(t *testing.T, s *Server, nSubs int, topic string) *stalledClient {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	if err := wire.WriteFrame(nc, wire.Connect{ClientID: "stalled"}); err != nil {
		t.Fatal(err)
	}
	// Read the Connected reply so the handshake completes.
	fr := wire.NewFrameReader(nc)
	if _, err := fr.Read(); err != nil {
		t.Fatal(err)
	}
	// Subscribe one at a time, reading each SubOK before sending the
	// next: the test servers run with tiny writer queues, and a burst of
	// unread SubOK replies would trip the slow-consumer drop before the
	// stall we actually want to test. After the last SubOK the client
	// goes silent for good.
	for i := 0; i < nSubs; i++ {
		if err := wire.WriteFrame(nc, wire.Subscribe{SubID: int64(i + 1), Dest: message.Topic(topic)}); err != nil {
			t.Fatal(err)
		}
		if _, err := fr.Read(); err != nil {
			t.Fatalf("sub %d reply: %v", i+1, err)
		}
	}
	return &stalledClient{nc: nc}
}

// TestBatchPoolExactlyOnceUnderDrop pins the exactly-once release rule
// for pooled DeliverBatch envelopes on the partial-failure path: a
// stalled subscriber connection accumulates batched deliveries until
// the writer queue overflows, the slow-consumer drop fires from inside
// a batched run (Env.Send → trySend full → dropConn, the PR 3
// deferred-OnConnClose path), the dying writer drains and releases its
// queue, and late publishes hit the dead-writer release path. At
// quiesce the counting pool must balance: every GetDeliverBatch matched
// by exactly one PutDeliverBatch (a double put panics in the pool).
func TestBatchPoolExactlyOnceUnderDrop(t *testing.T) {
	gets0, puts0 := wire.DeliverBatchPoolCounters()

	s := startServer(t, ServerConfig{WriteBuffer: 2})
	pub := dial(t, s, "pub")
	_ = newStalledClient(t, s, 70, "drop") // 70 targets ≥ threshold, one conn → one batch per publish

	waitFor(t, func() bool { return s.Broker().TopicSubscribers("drop") == 70 })

	// Publish (synchronously, so the publisher's own PubAck replies never
	// burst its queue) until the stalled connection is dropped: its
	// writer queue holds 2 batches and the socket buffers absorb a few
	// more, then Env.Send overflows and drops it. Keep publishing
	// afterwards so late batches exercise the dead-writer release path
	// too.
	payload := make([]byte, 32<<10)
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Connections > 1 { // pub + stalled = 2
		if time.Now().After(deadline) {
			t.Fatal("stalled consumer never dropped")
		}
		m := message.NewText(string(payload))
		m.Dest = message.Topic("drop")
		if err := pub.PublishSync(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m := message.NewText("tail")
		m.Dest = message.Topic("drop")
		if err := pub.PublishSync(m); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, func() bool {
		gets1, puts1 := wire.DeliverBatchPoolCounters()
		return gets1-gets0 > 0 && gets1-gets0 == puts1-puts0
	})
}

// TestFanoutChurnOverTCP races a wide fan-out with subscribers joining
// and leaving mid-publish and a stalled consumer being dropped from a
// batched run, under -race in CI. The assertion is convergence: the
// surviving subscriber keeps receiving, and the pool balances.
func TestFanoutChurnOverTCP(t *testing.T) {
	gets0, puts0 := wire.DeliverBatchPoolCounters()

	s := startServer(t, ServerConfig{WriteBuffer: 4})
	pub := dial(t, s, "pub")
	keeper := dial(t, s, "keeper")

	var got atomic.Int64
	for i := 0; i < 40; i++ {
		if _, err := keeper.Subscribe(message.Topic("churn"), "", func(m *message.Message) {
			got.Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	_ = newStalledClient(t, s, 40, "churn")
	waitFor(t, func() bool { return s.Broker().TopicSubscribers("churn") == 80 })

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // churner: connections subscribing and closing mid-fan-out
		defer wg.Done()
		for i := 0; i < 15; i++ {
			c, err := Dial(s.Addr(), fmt.Sprintf("churn%d", i))
			if err != nil {
				continue
			}
			for j := 0; j < 30; j++ {
				_, _ = c.Subscribe(message.Topic("churn"), "", func(m *message.Message) {})
			}
			time.Sleep(2 * time.Millisecond)
			_ = c.Close()
		}
	}()
	payload := make([]byte, 16<<10)
	go func() { // publisher: every publish is over the threshold
		defer wg.Done()
		for i := 0; i < 120; i++ {
			m := message.NewText(string(payload))
			m.Dest = message.Topic("churn")
			if err := pub.PublishSync(m); err != nil {
				return
			}
		}
	}()
	wg.Wait()

	if n := got.Load(); n == 0 {
		t.Fatal("surviving subscriber received nothing")
	}
	waitFor(t, func() bool {
		gets1, puts1 := wire.DeliverBatchPoolCounters()
		return gets1-gets0 == puts1-puts0
	})
}
