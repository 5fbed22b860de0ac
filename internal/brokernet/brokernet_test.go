package brokernet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"gridmon/internal/broker"
	"gridmon/internal/message"
	"gridmon/internal/simproc"
	"gridmon/internal/wire"
)

// memEnv is a minimal broker.Env for tests: unlimited heap, frame
// capture. Mutex-guarded so the race stress can drive brokers from many
// goroutines.
type memEnv struct {
	mu   sync.Mutex
	sent map[broker.ConnID][]wire.Frame
	heap *simproc.Heap
}

func newMemEnv() *memEnv {
	return &memEnv{sent: make(map[broker.ConnID][]wire.Frame), heap: simproc.NewHeap("t", 0, 0)}
}

func (e *memEnv) Now() int64 { return 0 }
func (e *memEnv) Send(c broker.ConnID, f wire.Frame) {
	e.mu.Lock()
	e.sent[c] = append(e.sent[c], f)
	e.mu.Unlock()
}
func (e *memEnv) CloseConn(broker.ConnID) {}
func (e *memEnv) AllocConn() error        { return nil }
func (e *memEnv) FreeConn()               {}
func (e *memEnv) Alloc(n int64) error     { return e.heap.Alloc(n) }
func (e *memEnv) Free(n int64)            { e.heap.Free(n) }

func (e *memEnv) deliveries(c broker.ConnID) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, f := range e.sent[c] {
		if _, ok := f.(*wire.Deliver); ok {
			n++
		}
	}
	return n
}

// deliveredIDs returns the message IDs delivered to a connection, as a
// sorted multiset for routing-mode equivalence comparisons.
func (e *memEnv) deliveredIDs(c broker.ConnID) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var ids []string
	for _, f := range e.sent[c] {
		if d, ok := f.(*wire.Deliver); ok {
			ids = append(ids, d.Msg.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

// queuedFrame is one in-flight inter-broker frame.
type queuedFrame struct {
	to, from string
	f        wire.Frame
}

// testNet wires members together with asynchronous in-memory links: a
// LinkSender only enqueues (per the Member contract — synchronous
// re-entry would deadlock on the member locks), and pump() drains the
// queue to quiescence in FIFO order.
type testNet struct {
	members map[string]*Member
	envs    map[string]*memEnv
	// publishers holds the connections publish has opened, so one
	// connection can publish any number of times.
	publishers map[pubConn]bool

	mu    sync.Mutex
	queue []queuedFrame
}

type pubConn struct {
	brokerID string
	conn     broker.ConnID
}

// sender returns the LinkSender carrying frames from `from` to `to`.
func (tn *testNet) sender(from, to string) LinkSender {
	return func(f wire.Frame) {
		tn.mu.Lock()
		tn.queue = append(tn.queue, queuedFrame{to: to, from: from, f: f})
		tn.mu.Unlock()
	}
}

// pump delivers queued frames in order until the network is quiescent.
func (tn *testNet) pump() {
	for {
		tn.mu.Lock()
		if len(tn.queue) == 0 {
			tn.mu.Unlock()
			return
		}
		q := tn.queue[0]
		tn.queue = tn.queue[1:]
		tn.mu.Unlock()
		tn.members[q.to].OnPeerFrame(q.from, q.f)
	}
}

func (tn *testNet) link(a, b string) {
	tn.members[a].AddPeer(b, tn.sender(a, b))
	tn.members[b].AddPeer(a, tn.sender(b, a))
	tn.pump()
}

// build creates n brokers in the given mode and links them per the link
// list.
func build(tb testing.TB, mode RoutingMode, links [][2]string, ids ...string) *testNet {
	tb.Helper()
	tn := &testNet{members: make(map[string]*Member), envs: make(map[string]*memEnv)}
	for _, id := range ids {
		env := newMemEnv()
		tn.envs[id] = env
		tn.members[id] = NewMember(broker.New(env, broker.DefaultConfig(id)), mode)
	}
	for _, l := range links {
		tn.link(l[0], l[1])
	}
	return tn
}

func openAndSubscribe(tb testing.TB, tn *testNet, brokerID string, conn broker.ConnID, topic string) {
	tb.Helper()
	b := tn.members[brokerID].Broker()
	if err := b.OnConnOpen(conn); err != nil {
		tb.Fatal(err)
	}
	b.OnFrame(conn, wire.Subscribe{SubID: 1, Dest: message.Topic(topic)})
	tn.pump()
}

// publish sends one message to topic from conn on brokerID, opening the
// connection on its first publish, and pumps the network to quiescence.
func publish(tb testing.TB, tn *testNet, brokerID string, conn broker.ConnID, topic string) {
	tb.Helper()
	b := tn.members[brokerID].Broker()
	if pc := (pubConn{brokerID, conn}); !tn.publishers[pc] {
		if err := b.OnConnOpen(conn); err != nil {
			tb.Fatal(err)
		}
		if tn.publishers == nil {
			tn.publishers = make(map[pubConn]bool)
		}
		tn.publishers[pc] = true
	}
	m := message.NewText("x")
	m.Dest = message.Topic(topic)
	b.OnFrame(conn, wire.Publish{Seq: 1, Msg: m})
	tn.pump()
}

// ackAll acknowledges every delivery recorded since its last call, as a
// live subscriber would, and drops every recorded frame, so pending
// state and the record stay flat across publishes. It returns the
// number of deliveries acked.
func ackAll(tn *testNet) int {
	acked := 0
	for id, env := range tn.envs {
		env.mu.Lock()
		sent := env.sent
		env.sent = make(map[broker.ConnID][]wire.Frame)
		env.mu.Unlock()
		b := tn.members[id].Broker()
		for c, frames := range sent {
			for _, f := range frames {
				if d, ok := f.(*wire.Deliver); ok {
					b.OnFrame(c, wire.Ack{SubID: d.SubID, Tags: []int64{d.Tag}})
					acked++
				}
			}
		}
	}
	return acked
}

// forwardCounts sums the network's forwarded and pruned frames.
func forwardCounts(tn *testNet) (forwarded, pruned uint64) {
	for _, m := range tn.members {
		s, _, p := m.Stats()
		forwarded += s
		pruned += p
	}
	return forwarded, pruned
}

func TestBroadcastReachesRemoteSubscriber(t *testing.T) {
	tn := build(t, RoutingBroadcast, [][2]string{{"b1", "b2"}}, "b1", "b2")
	openAndSubscribe(t, tn, "b2", 10, "power")
	publish(t, tn, "b1", 20, "power")
	if tn.envs["b2"].deliveries(10) != 1 {
		t.Fatal("remote subscriber did not receive message")
	}
}

func TestBroadcastFloodsUninterestedPeers(t *testing.T) {
	// Star: b1 hub; only b2 subscribes. Broadcast must still push the
	// message to b3 and b4 (the paper's "unnecessary data flow").
	links := [][2]string{{"b1", "b2"}, {"b1", "b3"}, {"b1", "b4"}}
	tn := build(t, RoutingBroadcast, links, "b1", "b2", "b3", "b4")
	openAndSubscribe(t, tn, "b2", 10, "power")
	publish(t, tn, "b1", 20, "power")
	for _, id := range []string{"b2", "b3", "b4"} {
		_, received, _ := tn.members[id].Stats()
		if received != 1 {
			t.Fatalf("broker %s received %d forwards, want 1 (broadcast)", id, received)
		}
	}
	if tn.envs["b2"].deliveries(10) != 1 {
		t.Fatal("subscriber missed message")
	}
}

func TestTreeRoutingPrunes(t *testing.T) {
	links := [][2]string{{"b1", "b2"}, {"b1", "b3"}, {"b1", "b4"}}
	tn := build(t, RoutingTree, links, "b1", "b2", "b3", "b4")
	openAndSubscribe(t, tn, "b2", 10, "power")
	publish(t, tn, "b1", 20, "power")
	if tn.envs["b2"].deliveries(10) != 1 {
		t.Fatal("tree routing lost the message")
	}
	for _, id := range []string{"b3", "b4"} {
		_, received, _ := tn.members[id].Stats()
		if received != 0 {
			t.Fatalf("broker %s received %d forwards, want 0 (pruned)", id, received)
		}
	}
	_, _, pruned := tn.members["b1"].Stats()
	if pruned != 2 {
		t.Fatalf("hub pruned %d forwards, want 2", pruned)
	}
}

var (
	star4     = [][2]string{{"hub", "l1"}, {"hub", "l2"}, {"hub", "l3"}}
	star4IDs  = []string{"hub", "l1", "l2", "l3"}
	chain3    = [][2]string{{"b1", "b2"}, {"b2", "b3"}}
	chain3IDs = []string{"b1", "b2", "b3"}
)

// forwardCases drive one topic published at pubAt to quiescence, with
// one subscriber at each broker in subAt, and give the forwarded and
// pruned frames each publish costs. TestBroadcastFloodsUninterestedPeers
// and TestTreeRoutingPrunes pin the star with one subscribed leaf.
var forwardCases = []struct {
	name              string
	mode              RoutingMode
	links             [][2]string
	ids, subAt        []string
	pubAt             string
	forwarded, pruned uint64
}{
	// Chatter on a topic nobody watches: broadcast still pays a forward
	// per leaf, tree routing none.
	{"star4/unwatched/broadcast", RoutingBroadcast, star4, star4IDs, nil, "hub", 3, 0},
	{"star4/unwatched/tree", RoutingTree, star4, star4IDs, nil, "hub", 0, 3},
	// Publisher and subscriber at opposite ends of the experiment chain:
	// every message transits the middle broker in both modes.
	{"chain3/far-sub/broadcast", RoutingBroadcast, chain3, chain3IDs, []string{"b3"}, "b1", 2, 0},
	{"chain3/far-sub/tree", RoutingTree, chain3, chain3IDs, []string{"b3"}, "b1", 2, 0},
}

func TestForwardCountsPerPublish(t *testing.T) {
	const publishes = 3
	for _, tc := range forwardCases {
		t.Run(tc.name, func(t *testing.T) {
			tn := build(t, tc.mode, tc.links, tc.ids...)
			for _, id := range tc.subAt {
				openAndSubscribe(t, tn, id, 10, "power")
			}
			for i := 0; i < publishes; i++ {
				publish(t, tn, tc.pubAt, 20, "power")
				if got := ackAll(tn); got != len(tc.subAt) {
					t.Fatalf("publish %d: %d deliveries, want %d", i, got, len(tc.subAt))
				}
			}
			for id, m := range tn.members {
				if n := m.Broker().PendingCount(); n != 0 {
					t.Fatalf("broker %s: %d deliveries pending after acks", id, n)
				}
			}
			fwd, pruned := forwardCounts(tn)
			if fwd != publishes*tc.forwarded || pruned != publishes*tc.pruned {
				t.Fatalf("per publish: %d forwarded, %d pruned; want %d, %d",
					fwd/publishes, pruned/publishes, tc.forwarded, tc.pruned)
			}
		})
	}
}

// BenchmarkDBNForward times one publish to quiescence, every remote
// delivery and its ack included, per forwardCases row.
func BenchmarkDBNForward(b *testing.B) {
	for _, tc := range forwardCases {
		b.Run(tc.name, func(b *testing.B) {
			tn := build(b, tc.mode, tc.links, tc.ids...)
			for _, id := range tc.subAt {
				openAndSubscribe(b, tn, id, 10, "power")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				publish(b, tn, tc.pubAt, 20, "power")
				ackAll(tn)
			}
			b.StopTimer()
			fwd, pruned := forwardCounts(tn)
			b.ReportMetric(float64(fwd)/float64(b.N), "forwards/op")
			b.ReportMetric(float64(pruned)/float64(b.N), "pruned/op")
		})
	}
}

func TestTreeRoutingMultiHop(t *testing.T) {
	// Chain b1-b2-b3: subscriber at b3, publisher at b1. Interest must
	// propagate through b2 and the message must transit b2.
	links := [][2]string{{"b1", "b2"}, {"b2", "b3"}}
	tn := build(t, RoutingTree, links, "b1", "b2", "b3")
	openAndSubscribe(t, tn, "b3", 10, "power")
	publish(t, tn, "b1", 20, "power")
	if tn.envs["b3"].deliveries(10) != 1 {
		t.Fatal("multi-hop delivery failed")
	}
	_, rcvd2, _ := tn.members["b2"].Stats()
	if rcvd2 != 1 {
		t.Fatalf("middle broker forwards = %d", rcvd2)
	}
}

func TestBroadcastMultiHopNoDuplicates(t *testing.T) {
	links := [][2]string{{"b1", "b2"}, {"b2", "b3"}}
	tn := build(t, RoutingBroadcast, links, "b1", "b2", "b3")
	openAndSubscribe(t, tn, "b3", 10, "power")
	openAndSubscribe(t, tn, "b1", 11, "power")
	publish(t, tn, "b2", 20, "power")
	if tn.envs["b3"].deliveries(10) != 1 || tn.envs["b1"].deliveries(11) != 1 {
		t.Fatal("flood delivery wrong")
	}
	publish(t, tn, "b1", 21, "power")
	if tn.envs["b3"].deliveries(10) != 2 {
		t.Fatalf("end-to-end flood count = %d", tn.envs["b3"].deliveries(10))
	}
}

func TestInterestWithdrawal(t *testing.T) {
	links := [][2]string{{"b1", "b2"}}
	tn := build(t, RoutingTree, links, "b1", "b2")
	openAndSubscribe(t, tn, "b2", 10, "power")
	publish(t, tn, "b1", 20, "power")
	sent1, _, _ := tn.members["b1"].Stats()
	if sent1 != 1 {
		t.Fatalf("initial forward count = %d", sent1)
	}
	// Drop the subscriber: interest withdraws, next publish is pruned.
	tn.members["b2"].Broker().OnConnClose(10)
	tn.pump()
	publish(t, tn, "b1", 20, "power")
	sent2, _, pruned := tn.members["b1"].Stats()
	if sent2 != 1 || pruned != 1 {
		t.Fatalf("after withdrawal: sent=%d pruned=%d", sent2, pruned)
	}
}

func TestLateJoinerLearnsInterest(t *testing.T) {
	// Subscribe first, then add the link: AddPeer must advertise existing
	// interest so the publisher-side broker forwards.
	tn := &testNet{members: make(map[string]*Member), envs: make(map[string]*memEnv)}
	for _, id := range []string{"b1", "b2"} {
		env := newMemEnv()
		tn.envs[id] = env
		tn.members[id] = NewMember(broker.New(env, broker.DefaultConfig(id)), RoutingTree)
	}
	openAndSubscribe(t, tn, "b2", 10, "power")
	tn.link("b1", "b2")
	publish(t, tn, "b1", 20, "power")
	if tn.envs["b2"].deliveries(10) != 1 {
		t.Fatal("late link did not carry interest")
	}
}

func TestPreexistingTopicsAdvertisedOnJoin(t *testing.T) {
	// A live broker gains a subscriber BEFORE it joins the network (the
	// TCP daemon serves clients before JoinNetwork/peering completes).
	// NewMember must seed that interest, or tree routing prunes the
	// topic forever.
	env2 := newMemEnv()
	b2 := broker.New(env2, broker.DefaultConfig("b2"))
	if err := b2.OnConnOpen(10); err != nil {
		t.Fatal(err)
	}
	b2.OnFrame(10, wire.Subscribe{SubID: 1, Dest: message.Topic("power")})

	tn := &testNet{members: make(map[string]*Member), envs: make(map[string]*memEnv)}
	env1 := newMemEnv()
	tn.envs["b1"] = env1
	tn.members["b1"] = NewMember(broker.New(env1, broker.DefaultConfig("b1")), RoutingTree)
	tn.envs["b2"] = env2
	tn.members["b2"] = NewMember(b2, RoutingTree)
	tn.link("b1", "b2")
	publish(t, tn, "b1", 20, "power")
	if tn.envs["b2"].deliveries(10) != 1 {
		t.Fatal("pre-join subscription was not advertised")
	}
}

func TestCycleLoopBroken(t *testing.T) {
	// A mis-wired ring (possible over TCP, where no Controller sees the
	// global topology): b1-b2, b2-b3, b3-b1. A broker must drop its own
	// publish when it loops back, so the flood terminates instead of
	// circulating forever (the pump would never drain otherwise).
	tn := &testNet{members: make(map[string]*Member), envs: make(map[string]*memEnv)}
	for _, id := range []string{"b1", "b2", "b3"} {
		env := newMemEnv()
		tn.envs[id] = env
		tn.members[id] = NewMember(broker.New(env, broker.DefaultConfig(id)), RoutingBroadcast)
	}
	tn.link("b1", "b2")
	tn.link("b2", "b3")
	tn.link("b3", "b1")
	openAndSubscribe(t, tn, "b1", 10, "power")
	publish(t, tn, "b1", 20, "power")
	// The pump returned, so the flood terminated; the origin's local
	// subscriber saw the message exactly once (loop copies dropped).
	if got := tn.envs["b1"].deliveries(10); got != 1 {
		t.Fatalf("origin subscriber deliveries = %d, want 1", got)
	}
}

func TestRemovePeerWithdrawsInterest(t *testing.T) {
	// Chain b1-b2-b3 with the subscriber behind b3. When b2 loses its
	// link to b3 (a TCP peer death), b2 must withdraw the subtree's
	// interest from b1 so b1 stops forwarding into a black hole.
	links := [][2]string{{"b1", "b2"}, {"b2", "b3"}}
	tn := build(t, RoutingTree, links, "b1", "b2", "b3")
	openAndSubscribe(t, tn, "b3", 10, "power")
	publish(t, tn, "b1", 20, "power")
	sent1, _, _ := tn.members["b1"].Stats()
	if sent1 != 1 {
		t.Fatalf("initial forward count = %d", sent1)
	}
	tn.members["b2"].RemovePeer("b3")
	tn.pump()
	if tn.members["b2"].HasPeer("b3") {
		t.Fatal("peer still registered after RemovePeer")
	}
	publish(t, tn, "b1", 20, "power")
	sent2, _, pruned1 := tn.members["b1"].Stats()
	if sent2 != 1 || pruned1 != 1 {
		t.Fatalf("after peer removal: sent=%d pruned=%d", sent2, pruned1)
	}
}

func TestLateFramesFromRemovedPeerIgnored(t *testing.T) {
	// A serialized binding can still have a dead link's frames queued
	// behind its RemovePeer. A BrokerSub arriving after removal must not
	// resurrect interest state for the unregistered peer — that ghost
	// subtree would be advertised forever.
	links := [][2]string{{"b1", "b2"}}
	tn := build(t, RoutingTree, links, "b1", "b2")
	m1 := tn.members["b1"]
	m1.RemovePeer("b2")
	tn.pump()
	m1.OnPeerFrame("b2", wire.BrokerSub{BrokerID: "b2", Topic: "power", Add: true})
	tn.pump()
	if got := m1.InterestedPeers("power"); len(got) != 0 {
		t.Fatalf("ghost interest recorded for removed peer: %v", got)
	}
}

func TestQueueForwarding(t *testing.T) {
	// Tree mode forwards queue messages unpruned (interest tracking is
	// topic-only), so a remote queue consumer still receives them.
	links := [][2]string{{"b1", "b2"}}
	tn := build(t, RoutingTree, links, "b1", "b2")
	b2 := tn.members["b2"].Broker()
	if err := b2.OnConnOpen(10); err != nil {
		t.Fatal(err)
	}
	b2.OnFrame(10, wire.Subscribe{SubID: 1, Dest: message.Queue("work")})
	tn.pump()
	b1 := tn.members["b1"].Broker()
	if err := b1.OnConnOpen(20); err != nil {
		t.Fatal(err)
	}
	m := message.NewText("job")
	m.Dest = message.Queue("work")
	b1.OnFrame(20, wire.Publish{Seq: 1, Msg: m})
	tn.pump()
	if tn.envs["b2"].deliveries(10) != 1 {
		t.Fatal("queue message not forwarded")
	}
}

func TestDuplicatePeerPanics(t *testing.T) {
	env := newMemEnv()
	m := NewMember(broker.New(env, broker.DefaultConfig("b1")), RoutingTree)
	m.AddPeer("x", func(wire.Frame) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate peer did not panic")
		}
	}()
	m.AddPeer("x", func(wire.Frame) {})
}

func TestMemberLinkErrors(t *testing.T) {
	env := newMemEnv()
	m := NewMember(broker.New(env, broker.DefaultConfig("b1")), RoutingTree)
	if err := m.Link("b1", func(wire.Frame) {}); err == nil {
		t.Fatal("self link accepted")
	}
	if err := m.Link("x", func(wire.Frame) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Link("x", func(wire.Frame) {}); err == nil {
		t.Fatal("duplicate link accepted")
	}
	if got := m.Peers(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("peers = %v", got)
	}
}

func TestModeString(t *testing.T) {
	if RoutingBroadcast.String() != "broadcast" || RoutingTree.String() != "tree" {
		t.Fatal("mode names")
	}
	for _, name := range []string{"broadcast", "tree"} {
		mode, err := ParseRoutingMode(name)
		if err != nil || mode.String() != name {
			t.Fatalf("ParseRoutingMode(%q) = %v, %v", name, mode, err)
		}
	}
	if _, err := ParseRoutingMode("mesh"); err == nil {
		t.Fatal("bad mode name accepted")
	}
}

func TestControllerAddressing(t *testing.T) {
	c := NewController()
	a1 := c.Register("b1")
	a2 := c.Register("b2")
	if a1 == a2 || c.Register("b1") != a1 {
		t.Fatalf("addresses: %d %d", a1, a2)
	}
	if c.Address("b2") != a2 || c.Address("nope") != 0 {
		t.Fatal("address lookup")
	}
	if c.Brokers() != 2 {
		t.Fatalf("brokers = %d", c.Brokers())
	}
}

func TestControllerStarAndRoutes(t *testing.T) {
	c := NewController()
	c.StarLinks([]string{"hub", "b2", "b3", "b4"})
	if err := c.ValidateTree(); err != nil {
		t.Fatalf("star not a tree: %v", err)
	}
	routes := c.Routes()
	if routes["b2"]["b3"] != 2 || routes["hub"]["b4"] != 1 {
		t.Fatalf("routes = %v", routes)
	}
}

func TestControllerChain(t *testing.T) {
	c := NewController()
	c.ChainLinks([]string{"a", "b", "c", "d"})
	if err := c.ValidateTree(); err != nil {
		t.Fatal(err)
	}
	if c.Routes()["a"]["d"] != 3 {
		t.Fatalf("chain distance = %d", c.Routes()["a"]["d"])
	}
}

func TestControllerLinkValidation(t *testing.T) {
	c := NewController()
	c.Register("a")
	c.Register("b")
	c.Register("c")
	if err := c.Link("a", "a"); err == nil || !strings.Contains(err.Error(), "self link") {
		t.Fatalf("self link: %v", err)
	}
	if err := c.Link("a", "zz"); err == nil || !strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("unregistered: %v", err)
	}
	if err := c.Link("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Link("b", "a"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate (reversed): %v", err)
	}
	if err := c.ValidateTree(); err == nil {
		t.Fatal("disconnected graph validated as tree")
	}
	if err := c.Link("b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateTree(); err != nil {
		t.Fatal(err)
	}
	// a-b-c chain: closing a-c would create the cycle that duplicates
	// every forwarded message; Link must reject it and say why.
	err := c.Link("a", "c")
	if err == nil {
		t.Fatal("cycle-closing link accepted")
	}
	if !strings.Contains(err.Error(), "cycle") || !strings.Contains(err.Error(), "already connected") {
		t.Fatalf("cycle error not descriptive: %v", err)
	}
	if len(c.Links()) != 2 {
		t.Fatalf("rejected link was recorded: %v", c.Links())
	}
}

func TestControllerBadLinksPanic(t *testing.T) {
	c := NewController()
	c.Register("a")
	c.Register("b")
	c.AddLink("a", "b")
	for _, fn := range []func(){
		func() { c.AddLink("a", "a") },
		func() { c.AddLink("a", "b") },
		func() { c.AddLink("b", "a") },
		func() { c.AddLink("a", "zz") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad link did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestBroadcastTreeEquivalenceRandomized drives the same randomized
// workload — a random tree topology, random subscriber placement over a
// handful of topics, publishes from random brokers — through both
// routing modes and requires every subscriber to receive the identical
// multiset of messages. Broadcast and tree may differ in how much the
// wire carries, never in what subscribers see.
func TestBroadcastTreeEquivalenceRandomized(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 2 + rng.Intn(5) // 2..6 brokers
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("b%d", i+1)
		}
		// Random tree: attach each broker to a random earlier one.
		var links [][2]string
		for i := 1; i < n; i++ {
			links = append(links, [2]string{ids[rng.Intn(i)], ids[i]})
		}
		topics := []string{"power", "load", "volts"}
		type subPlace struct {
			brokerIdx int
			conn      broker.ConnID
			topic     string
		}
		var subsPlan []subPlace
		nSubs := 1 + rng.Intn(4)
		for s := 0; s < nSubs; s++ {
			subsPlan = append(subsPlan, subPlace{
				brokerIdx: rng.Intn(n),
				conn:      broker.ConnID(100 + s),
				topic:     topics[rng.Intn(len(topics))],
			})
		}
		type pubOp struct {
			brokerIdx int
			topic     string
			id        string
		}
		var pubs []pubOp
		nPubs := 5 + rng.Intn(20)
		for p := 0; p < nPubs; p++ {
			pubs = append(pubs, pubOp{
				brokerIdx: rng.Intn(n),
				topic:     topics[rng.Intn(len(topics))],
				id:        fmt.Sprintf("ID:eq/%d/%d", trial, p),
			})
		}

		run := func(mode RoutingMode) map[broker.ConnID][]string {
			tn := build(t, mode, links, ids...)
			for _, sp := range subsPlan {
				openAndSubscribe(t, tn, ids[sp.brokerIdx], sp.conn, sp.topic)
			}
			opened := make(map[broker.ConnID]bool)
			for i, po := range pubs {
				b := tn.members[ids[po.brokerIdx]].Broker()
				pubConn := broker.ConnID(1000 + po.brokerIdx)
				if !opened[pubConn] {
					if err := b.OnConnOpen(pubConn); err != nil {
						t.Fatal(err)
					}
					opened[pubConn] = true
				}
				m := message.NewText("x")
				m.ID = po.id
				m.Dest = message.Topic(po.topic)
				b.OnFrame(pubConn, wire.Publish{Seq: int64(i), Msg: m})
				tn.pump()
			}
			got := make(map[broker.ConnID][]string)
			for _, sp := range subsPlan {
				got[sp.conn] = tn.envs[ids[sp.brokerIdx]].deliveredIDs(sp.conn)
			}
			return got
		}

		flood := run(RoutingBroadcast)
		tree := run(RoutingTree)
		for _, sp := range subsPlan {
			a, b := flood[sp.conn], tree[sp.conn]
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("trial %d: subscriber %d on %s@%s delivered multiset diverges:\nbroadcast: %v\ntree:      %v",
					trial, sp.conn, sp.topic, ids[sp.brokerIdx], a, b)
			}
		}
	}
}

// chanLink is an asynchronous link for the concurrency stress: sends
// enqueue onto a buffered channel drained by a dedicated goroutine, the
// same shape as the TCP binding's per-connection writer. inflight counts
// frames enqueued but not yet fully processed — a frame a link goroutine
// is still handling may enqueue more frames, so "all channels look
// empty" is not quiescence; inflight==0 is.
type chanLink struct {
	ch   chan wire.Frame
	done chan struct{}
}

func startChanLink(to *Member, from string, buf int, inflight *sync.WaitGroup) *chanLink {
	l := &chanLink{ch: make(chan wire.Frame, buf), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		for f := range l.ch {
			to.OnPeerFrame(from, f)
			inflight.Done()
		}
	}()
	return l
}

// TestConcurrentDBNForwardStress hammers a 3-broker chain — sharded
// cores, concurrent publishers on every broker, subscribers flapping to
// exercise interest propagation — and checks nothing is lost end to end
// once quiescent. Run with -race: this is the proof that the forwarding
// layer is shard-safe with Shards>1 and concurrent OnFrame callers.
func TestConcurrentDBNForwardStress(t *testing.T) {
	for _, mode := range []RoutingMode{RoutingBroadcast, RoutingTree} {
		t.Run(mode.String(), func(t *testing.T) {
			const (
				pubsPerBroker = 4
				msgsPerPub    = 150
				linkBuf       = 1 << 15
			)
			ids := []string{"b1", "b2", "b3"}
			envs := make(map[string]*memEnv)
			members := make(map[string]*Member)
			for _, id := range ids {
				env := newMemEnv()
				cfg := broker.DefaultConfig(id)
				cfg.Shards = 4
				envs[id] = env
				members[id] = NewMember(broker.New(env, cfg), mode)
			}
			var lnks []*chanLink
			var inflight sync.WaitGroup
			link := func(a, b string) {
				ab := startChanLink(members[b], a, linkBuf, &inflight)
				ba := startChanLink(members[a], b, linkBuf, &inflight)
				lnks = append(lnks, ab, ba)
				members[a].AddPeer(b, func(f wire.Frame) { inflight.Add(1); ab.ch <- f })
				members[b].AddPeer(a, func(f wire.Frame) { inflight.Add(1); ba.ch <- f })
			}
			link("b1", "b2")
			link("b2", "b3")

			// One steady subscriber per broker on the shared topic, plus a
			// flapper that subscribes/unsubscribes to churn interest.
			for i, id := range ids {
				b := members[id].Broker()
				conn := broker.ConnID(10 + i)
				if err := b.OnConnOpen(conn); err != nil {
					t.Fatal(err)
				}
				b.OnFrame(conn, wire.Subscribe{SubID: 1, Dest: message.Topic("power")})
			}
			// Tree mode prunes until interest propagates; wait for every
			// link to carry "power" interest both ways before the storm,
			// or early remote publishes are (correctly) dropped.
			wantInterest := map[string]int{"b1": 1, "b2": 2, "b3": 1}
			for _, id := range ids {
				for len(members[id].InterestedPeers("power")) != wantInterest[id] {
					runtime.Gosched()
				}
			}

			var wg sync.WaitGroup
			for bi, id := range ids {
				b := members[id].Broker()
				for p := 0; p < pubsPerBroker; p++ {
					conn := broker.ConnID(1000 + 100*bi + p)
					if err := b.OnConnOpen(conn); err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(b *broker.Broker, conn broker.ConnID) {
						defer wg.Done()
						for i := 0; i < msgsPerPub; i++ {
							m := message.NewText("x")
							m.Dest = message.Topic("power")
							b.OnFrame(conn, wire.Publish{Seq: int64(i), Msg: m})
						}
					}(b, conn)
				}
				// Interest flapper on a broker-private topic.
				conn := broker.ConnID(2000 + bi)
				if err := b.OnConnOpen(conn); err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(b *broker.Broker, conn broker.ConnID, bi int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						sid := int64(i + 1)
						b.OnFrame(conn, wire.Subscribe{SubID: sid, Dest: message.Topic(fmt.Sprintf("flap.%d", bi))})
						b.OnFrame(conn, wire.Unsubscribe{SubID: sid})
					}
				}(b, conn, bi)
			}
			wg.Wait()
			// Quiesce: no frame in flight on any link (an in-flight frame
			// may still spawn more, so inflight hits zero only when the
			// whole network has settled), then shut the links down.
			inflight.Wait()
			for _, l := range lnks {
				close(l.ch)
			}
			for _, l := range lnks {
				<-l.done
			}

			// Every steady subscriber must have received every publish
			// from every broker exactly once.
			const total = 3 * pubsPerBroker * msgsPerPub
			for i, id := range ids {
				if got := envs[id].deliveries(broker.ConnID(10 + i)); got != total {
					t.Fatalf("%s subscriber got %d deliveries, want %d", id, got, total)
				}
			}
		})
	}
}
