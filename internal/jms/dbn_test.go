package jms

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"gridmon/internal/broker"
	"gridmon/internal/brokernet"
	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// startDBN builds a chain of n servers joined in the given routing mode,
// with links dialed child→parent (b2→b1, b3→b2, …) over real TCP.
func startDBN(t *testing.T, mode brokernet.RoutingMode, n int) []*Server {
	t.Helper()
	servers := make([]*Server, n)
	for i := range servers {
		cfg := broker.DefaultConfig(fmt.Sprintf("b%d", i+1))
		cfg.Shards = 4
		servers[i] = startServer(t, ServerConfig{Broker: cfg})
		if _, err := servers[i].JoinNetwork(mode); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		peerID, err := servers[i].DialPeer(servers[i-1].Addr())
		if err != nil {
			t.Fatalf("peer %d->%d: %v", i+1, i, err)
		}
		if want := fmt.Sprintf("b%d", i); peerID != want {
			t.Fatalf("peer %d->%d handshake returned id %q, want %q", i+1, i, peerID, want)
		}
	}
	return servers
}

func TestDBNTreeDeliversAcrossBrokers(t *testing.T) {
	servers := startDBN(t, brokernet.RoutingTree, 3)

	var got atomic.Int64
	sub := dial(t, servers[2], "sub")
	if _, err := sub.Subscribe(message.Topic("power"), "", func(m *message.Message) {
		if m.Text() == "cross-broker" {
			got.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Tree routing: wait for interest to propagate b3→b2→b1 before
	// publishing, or the first publishes are (correctly) pruned.
	waitFor(t, func() bool {
		return len(servers[0].Member().InterestedPeers("power")) == 1
	})

	pub := dial(t, servers[0], "pub")
	m := message.NewText("cross-broker")
	m.Dest = message.Topic("power")
	if err := pub.PublishSync(m); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 })

	// The message transited the middle broker exactly once.
	waitFor(t, func() bool {
		_, received, _ := servers[1].Member().Stats()
		return received == 1
	})
}

func TestDBNBroadcastFloodsAllBrokers(t *testing.T) {
	servers := startDBN(t, brokernet.RoutingBroadcast, 3)

	// No subscribers anywhere: broadcast still pushes every publish
	// through the whole chain (the paper's criticised behaviour).
	pub := dial(t, servers[0], "pub")
	for i := 0; i < 5; i++ {
		m := message.NewText("flood")
		m.Dest = message.Topic("nobody.listens")
		if err := pub.PublishSync(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, idx := range []int{1, 2} {
		idx := idx
		waitFor(t, func() bool {
			_, received, _ := servers[idx].Member().Stats()
			return received == 5
		})
	}
}

func TestDBNTreePrunesUninterested(t *testing.T) {
	servers := startDBN(t, brokernet.RoutingTree, 2)
	pub := dial(t, servers[0], "pub")
	for i := 0; i < 5; i++ {
		m := message.NewText("noise")
		m.Dest = message.Topic("unwatched")
		if err := pub.PublishSync(m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		_, _, pruned := servers[0].Member().Stats()
		return pruned == 5
	})
	_, received, _ := servers[1].Member().Stats()
	if received != 0 {
		t.Fatalf("pruned publishes reached the peer: received=%d", received)
	}
}

func TestDBNDuplicateLinkRejected(t *testing.T) {
	servers := startDBN(t, brokernet.RoutingTree, 2)
	if _, err := servers[1].DialPeer(servers[0].Addr()); err == nil {
		t.Fatal("duplicate peer link accepted")
	}
}

func TestDBNPeerRequiresJoin(t *testing.T) {
	s := startServer(t, ServerConfig{})
	if _, err := s.DialPeer("127.0.0.1:1"); err != ErrNotJoined {
		t.Fatalf("err = %v, want ErrNotJoined", err)
	}
	if _, err := s.JoinNetwork(brokernet.RoutingTree); err != nil {
		t.Fatal(err)
	}
	if _, err := s.JoinNetwork(brokernet.RoutingTree); err != ErrAlreadyJoined {
		t.Fatalf("second join: %v", err)
	}
}

func TestDBNRoutingModeMismatchRejected(t *testing.T) {
	a := startServer(t, ServerConfig{Broker: broker.DefaultConfig("a")})
	b := startServer(t, ServerConfig{Broker: broker.DefaultConfig("b")})
	if _, err := a.JoinNetwork(brokernet.RoutingTree); err != nil {
		t.Fatal(err)
	}
	if _, err := b.JoinNetwork(brokernet.RoutingBroadcast); err != nil {
		t.Fatal(err)
	}
	if _, err := b.DialPeer(a.Addr()); err == nil {
		t.Fatal("mismatched routing modes linked")
	}
}

// TestDBNConcurrentPublishStress publishes concurrently through both
// brokers of a linked pair while a subscriber on each end counts
// arrivals: the forwarding layer must lose nothing with Shards>1 and
// many simultaneous OnFrame callers. This is the TCP half of the -race
// forwarding proof (the brokernet package has the in-process half).
func TestDBNConcurrentPublishStress(t *testing.T) {
	servers := startDBN(t, brokernet.RoutingTree, 2)

	const pubsPerBroker, msgsPerPub = 4, 25
	const total = 2 * pubsPerBroker * msgsPerPub

	counts := make([]atomic.Int64, 2)
	for i, s := range servers {
		sub := dial(t, s, fmt.Sprintf("sub-%d", i))
		i := i
		if _, err := sub.Subscribe(message.Topic("power"), "", func(*message.Message) {
			counts[i].Add(1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Let tree interest propagate both ways before the storm.
	for _, s := range servers {
		s := s
		waitFor(t, func() bool { return len(s.Member().InterestedPeers("power")) == 1 })
	}

	var wg sync.WaitGroup
	for si, s := range servers {
		for p := 0; p < pubsPerBroker; p++ {
			c := dial(t, s, fmt.Sprintf("pub-%d-%d", si, p))
			wg.Add(1)
			go func(c *Connection) {
				defer wg.Done()
				for i := 0; i < msgsPerPub; i++ {
					m := message.NewText("x")
					m.Dest = message.Topic("power")
					if err := c.PublishSync(m); err != nil {
						t.Error(err)
						return
					}
				}
			}(c)
		}
	}
	wg.Wait()
	for i := range counts {
		i := i
		waitFor(t, func() bool { return counts[i].Load() == total })
	}
}

// TestDialPeerHandshakeSharesReader: a peer that sends its handshake
// reply and its first interest frames in one write loses none of them —
// the link's reader is the one that read the handshake.
func TestDialPeerHandshakeSharesReader(t *testing.T) {
	s := startServer(t, ServerConfig{})
	if _, err := s.JoinNetwork(brokernet.RoutingTree); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	const topics = 5
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
		buf, _ := wire.AppendFrame(nil, wire.BrokerLink{BrokerID: "fake", Routing: uint8(brokernet.RoutingTree)})
		for i := range topics {
			buf, _ = wire.AppendFrame(buf, wire.BrokerSub{BrokerID: "fake", Topic: fmt.Sprintf("t%d", i), Add: true})
		}
		if _, err := nc.Write(buf); err != nil {
			return
		}
		for {
			if _, err := fr.Read(); err != nil {
				return
			}
		}
	}()
	peer, err := s.DialPeer(ln.Addr().String())
	if err != nil || peer != "fake" {
		t.Fatalf("DialPeer = %q, %v", peer, err)
	}
	waitFor(t, func() bool {
		for i := range topics {
			if len(s.Member().InterestedPeers(fmt.Sprintf("t%d", i))) != 1 {
				return false
			}
		}
		return true
	})
}
