// Package brokernet implements the Distributed Broker Network (DBN) layer:
// inter-broker links, subscription-interest propagation, and message
// forwarding with two routing modes.
//
// The paper found that NaradaBrokering v1.1.3 "broadcast and not diverged
// to different routes": published data flowed to every broker even when no
// subscriber was attached there, raising CPU load and round-trip time on
// the DBN above the single-broker deployment. RoutingBroadcast reproduces
// that deficiency. RoutingTree implements the fix the authors expected
// (and the "newest release" they planned to test): reverse-path interest
// propagation over the broker tree so messages flow only toward brokers
// with subscribers. The ablation benchmark compares the two.
//
// Broker topologies are assembled by a Controller — the paper's "unit
// controller" node that "assigned addresses to the other three nodes" —
// which allocates broker addresses and validates the link map as it is
// built (Link rejects self links, duplicates and cycles, so a forwarding
// loop can never be wired up).
//
// # Concurrency
//
// Member and Controller are safe for concurrent use. A Member guards its
// link table and interest maps with one mutex ordered strictly below the
// broker's locks: the broker's interest and forwarder callbacks arrive
// under a destination shard lock and acquire the member lock beneath it,
// while peer-frame processing takes the member lock only when no broker
// lock is held (BrokerForward injection releases it before calling
// InjectForwarded). Forwarding counters are atomics, so Stats is
// wait-free. A forward runs on the publishing goroutine under the read
// side of the member lock and enqueues onto each eligible link in
// AddPeer order, one cheap enqueue per peer, so publishes on different
// shards forward concurrently while each link sees a publisher's frames
// in order. The one contract a binding must honour: a LinkSender must
// *enqueue* — hand the frame to a writer goroutine, an event queue, or a
// socket buffer — and never call back into a Member on the caller's
// goroutine, because the caller may hold member and shard locks
// (synchronous re-entry was only ever safe under the old single-caller
// regime). Both real bindings already satisfy this: the TCP server's
// peer links feed per-connection frame writers (a non-blocking
// TrySend), and the simulator's links submit to the node's CPU queue.
//
// With a single calling goroutine (the discrete-event kernel) every lock
// is uncontended and acquisition order is the caller's order, so the
// paper's DBN figures remain byte-identical to the serial-only
// implementation (TestExperimentDeterminism).
package brokernet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gridmon/internal/broker"
	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// RoutingMode selects how members forward published messages.
type RoutingMode uint8

// Routing modes.
const (
	// RoutingBroadcast floods every published message to every peer,
	// regardless of subscriptions (the v1.1.3 behaviour the paper
	// criticises).
	RoutingBroadcast RoutingMode = iota
	// RoutingTree forwards along the broker tree only toward peers whose
	// subtree has interest in the topic.
	RoutingTree
)

func (m RoutingMode) String() string {
	if m == RoutingBroadcast {
		return "broadcast"
	}
	return "tree"
}

// ParseRoutingMode resolves a mode name ("broadcast" or "tree"), for
// daemon flags.
func ParseRoutingMode(s string) (RoutingMode, error) {
	switch s {
	case "broadcast":
		return RoutingBroadcast, nil
	case "tree":
		return RoutingTree, nil
	}
	return 0, fmt.Errorf("brokernet: unknown routing mode %q (want broadcast or tree)", s)
}

// LinkSender transmits a frame to a peer broker. Bindings implement it
// over simnet connections or real TCP. It MUST enqueue asynchronously
// and must not call back into any Member on the caller's goroutine: the
// caller may hold the member lock and a broker shard lock.
type LinkSender func(f wire.Frame)

// Member attaches one broker core to the broker network. It implements
// broker.Forwarder for the local broker and consumes peer frames via
// OnPeerFrame. Safe for concurrent use (see the package comment for the
// locking discipline). The member assumes a loop-free (tree or
// single-hop mesh) topology: forwarded messages carry their origin and
// are flooded away from the link they arrived on, so a cycle would
// duplicate messages — assemble topologies through a Controller, whose
// Link method rejects cycles outright.
type Member struct {
	b    *broker.Broker
	mode RoutingMode

	// mu guards the link table and interest maps. Lock order: it is
	// acquired under broker shard locks (interest/forwarder callbacks)
	// and must therefore never be held while calling into the broker's
	// locked paths (InjectForwarded and friends). Publish fan-out only
	// reads the table, so it takes the read side: publishers on
	// different destination shards forward in parallel and meet
	// exclusively only on topology and interest changes.
	mu    sync.RWMutex
	peers map[string]LinkSender
	// peerOrder fixes fan-out iteration to AddPeer order; map iteration
	// here would make multi-broker simulations nondeterministic.
	peerOrder []string

	// interest[peer] is the set of topics for which the subtree reached
	// through that peer has at least one subscriber.
	interest map[string]map[string]bool
	// localTopics tracks this broker's own subscriber interest.
	localTopics map[string]bool

	forwardsSent     atomic.Uint64
	forwardsReceived atomic.Uint64
	prunedForwards   atomic.Uint64
}

// NewMember wraps a broker core as a broker-network member. A broker
// that already has subscribers (a live TCP server joining the network)
// contributes its existing topics: the interest callback only fires on
// 0↔1 transitions, so without seeding, a topic subscribed before the
// join would never be advertised and tree routing would prune its
// publishes forever. The callback is installed before the snapshot, so
// the union cannot miss a concurrent subscribe (it can transiently
// over-advertise a topic emptied in the window, which the next interest
// transition corrects — false interest costs an extra forward, never a
// lost message).
func NewMember(b *broker.Broker, mode RoutingMode) *Member {
	m := &Member{
		b:           b,
		mode:        mode,
		peers:       make(map[string]LinkSender),
		interest:    make(map[string]map[string]bool),
		localTopics: make(map[string]bool),
	}
	b.SetForwarder(m)
	b.SetInterestFunc(m.onLocalInterest)
	// Snapshot outside the member lock: Topics takes shard locks, and
	// the member lock orders below them.
	topics := b.Topics()
	m.mu.Lock()
	for _, topic := range topics {
		m.localTopics[topic] = true
	}
	m.mu.Unlock()
	return m
}

// Broker returns the wrapped broker core.
func (m *Member) Broker() *broker.Broker { return m.b }

// Mode returns the routing mode.
func (m *Member) Mode() RoutingMode { return m.mode }

// Stats reports forwarding counters: frames sent to peers, received from
// peers, and forwards suppressed by tree pruning. Wait-free.
func (m *Member) Stats() (sent, received, pruned uint64) {
	return m.forwardsSent.Load(), m.forwardsReceived.Load(), m.prunedForwards.Load()
}

// AddPeer registers a link to a peer broker and advertises current
// interest over it, panicking on a duplicate (the historical API for
// statically wired topologies). Bindings must call OnPeerFrame for
// frames arriving from the peer.
func (m *Member) AddPeer(id string, send LinkSender) {
	if err := m.Link(id, send); err != nil {
		panic(err.Error())
	}
}

// Link registers a link to a peer broker and advertises current interest
// over it, returning a descriptive error on a duplicate or self link
// (the TCP binding surfaces it to the dialing peer instead of crashing
// the daemon). Bindings must call OnPeerFrame for frames arriving from
// the peer.
//
// An optional preamble is enqueued on the link after validation
// succeeds and before anything else — atomically with registration, so
// a binding whose handshake reply must (a) only be sent for links that
// are actually accepted and (b) precede the interest advertisements on
// the wire can pass the reply here instead of racing Link for queue
// position.
func (m *Member) Link(id string, send LinkSender, preamble ...wire.Frame) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == m.b.ID() {
		return fmt.Errorf("brokernet: self link on %q", id)
	}
	if _, dup := m.peers[id]; dup {
		return fmt.Errorf("brokernet: duplicate peer %q on %q", id, m.b.ID())
	}
	for _, f := range preamble {
		send(f)
	}
	m.peers[id] = send
	m.peerOrder = append(m.peerOrder, id)
	m.interest[id] = make(map[string]bool)
	send(wire.BrokerHello{BrokerID: m.b.ID()})
	// Advertise every topic this subtree is currently interested in, in
	// sorted order so link setup is deterministic.
	adv := m.advertisedTopicsLocked(id)
	topics := make([]string, 0, len(adv))
	for topic := range adv {
		topics = append(topics, topic)
	}
	sort.Strings(topics)
	for _, topic := range topics {
		send(wire.BrokerSub{BrokerID: m.b.ID(), Topic: topic, Add: true})
	}
	return nil
}

// HasPeer reports whether a link to the peer is registered.
func (m *Member) HasPeer(id string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.peers[id]
	return ok
}

// Peers returns the linked peer ids in AddPeer order.
func (m *Member) Peers() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.peerOrder...)
}

// InterestedPeers returns the peers whose subtree has advertised
// interest in the topic (the links a tree-mode publish would be
// forwarded on), in AddPeer order. Monitoring and tests use it to
// observe interest propagation.
func (m *Member) InterestedPeers(topic string) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for _, peer := range m.peerOrder {
		if m.interest[peer][topic] {
			out = append(out, peer)
		}
	}
	return out
}

// RemovePeer drops the link to a peer (a TCP peer connection died) and
// withdraws the interest its subtree contributed: every topic the peer
// advertised is re-advertised on the remaining links, so the rest of the
// tree stops forwarding toward a subtree that is no longer reachable.
func (m *Member) RemovePeer(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.peers[id]; !ok {
		return
	}
	lost := m.interest[id]
	delete(m.peers, id)
	delete(m.interest, id)
	for i, p := range m.peerOrder {
		if p == id {
			m.peerOrder = append(m.peerOrder[:i], m.peerOrder[i+1:]...)
			break
		}
	}
	topics := make([]string, 0, len(lost))
	for topic := range lost {
		topics = append(topics, topic)
	}
	sort.Strings(topics)
	for _, topic := range topics {
		m.reAdvertiseLocked(topic)
	}
}

// advertisedTopicsLocked returns the topics the member must advertise to
// peer `to`: local interest plus interest reachable via any other link.
// Member lock held.
func (m *Member) advertisedTopicsLocked(to string) map[string]bool {
	out := make(map[string]bool)
	for t := range m.localTopics {
		out[t] = true
	}
	for peer, topics := range m.interest {
		if peer == to {
			continue
		}
		for t := range topics {
			out[t] = true
		}
	}
	return out
}

// onLocalInterest reacts to the local broker gaining or losing its last
// subscriber on a topic. Runs under the topic's shard lock (the broker's
// interest callback contract); the member lock nests beneath it.
func (m *Member) onLocalInterest(topic string, add bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if add {
		m.localTopics[topic] = true
	} else {
		delete(m.localTopics, topic)
	}
	m.reAdvertiseLocked(topic)
}

// reAdvertiseLocked recomputes and pushes the interest advertisement for
// one topic on every link. Member lock held; holding it across the sends
// keeps each link's advertisement stream ordered consistently with the
// interest transitions that produced it (two racing transitions cannot
// enqueue their advertisements in opposite order on the same link).
func (m *Member) reAdvertiseLocked(topic string) {
	for _, peer := range m.peerOrder {
		send := m.peers[peer]
		want := m.localTopics[topic]
		if !want {
			for other, topics := range m.interest {
				if other != peer && topics[topic] {
					want = true
					break
				}
			}
		}
		// The advertisement is idempotent on the receiver, so send
		// unconditionally on change-relevant events; dedup would need
		// per-link sent-state, which BrokerSub traffic doesn't justify.
		send(wire.BrokerSub{BrokerID: m.b.ID(), Topic: topic, Add: want})
	}
}

// OnLocalPublish implements broker.Forwarder: fan a locally published
// message out to peers according to the routing mode. Runs under the
// destination shard's lock, so a destination's peer fan-out is totally
// ordered with its local deliveries.
func (m *Member) OnLocalPublish(msg *message.Message) {
	m.forward(msg, "", m.b.ID())
}

// forward sends a message to peers in AddPeer order, skipping the link
// it arrived on. Origin is the broker that first accepted the publish
// and is preserved across hops (wire.BrokerForward's contract) — it is
// what lets the origin recognize and drop its own publish if a
// mis-wired topology loops it back. The message is already frozen by
// the local broker, so every peer frame shares the one immutable value;
// transports that actually serialize it reuse its cached encoding (one
// encode total, no matter how many peers or local subscribers the
// fan-out reaches).
func (m *Member) forward(msg *message.Message, from, origin string) {
	// Read lock: fan-out only reads the link table and interest maps
	// (counters are atomic), so publishes on different destination
	// shards forward concurrently.
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, peer := range m.peerOrder {
		if peer == from {
			continue
		}
		send := m.peers[peer]
		if m.mode == RoutingTree && msg.Dest.Kind == message.TopicKind {
			if !m.interest[peer][msg.Dest.Name] {
				m.prunedForwards.Add(1)
				continue
			}
		}
		m.forwardsSent.Add(1)
		m.b.CountForwardOut()
		send(wire.BrokerForward{Origin: origin, Msg: msg})
	}
}

// OnPeerFrame processes a frame from a peer broker link. Each link's
// frames must arrive from one goroutine at a time (every transport reads
// a link with one reader); distinct links may call concurrently.
func (m *Member) OnPeerFrame(from string, f wire.Frame) {
	switch v := f.(type) {
	case wire.BrokerHello:
		// Identification only; links are registered explicitly.
	case wire.BrokerSub:
		m.mu.Lock()
		if _, live := m.peers[from]; !live {
			// A frame from a removed (or never-registered) peer —
			// possible when a serialized binding still has the link's
			// frames queued behind its removal. Recording its interest
			// would resurrect m.interest[from] as a ghost subtree that
			// nothing ever cleans up and that advertisedTopicsLocked
			// would advertise forever.
			m.mu.Unlock()
			return
		}
		if m.interest[from] == nil {
			m.interest[from] = make(map[string]bool)
		}
		changed := m.interest[from][v.Topic] != v.Add
		if v.Add {
			m.interest[from][v.Topic] = true
		} else {
			delete(m.interest[from], v.Topic)
		}
		if changed {
			// Propagate the subtree's interest to the rest of the tree.
			m.reAdvertiseLocked(v.Topic)
		}
		m.mu.Unlock()
	case wire.BrokerForward:
		if v.Origin == m.b.ID() {
			// Our own publish came back: the topology has a cycle
			// (mis-wired TCP peering — Controller-built topologies
			// cannot cycle). Dropping it here breaks the infinite
			// circulation; on a loop-free network this never fires.
			return
		}
		m.forwardsReceived.Add(1)
		// Local injection takes shard locks, so the member lock must not
		// be held here; the onward flood then re-acquires it. A racing
		// interest change between the two sections only affects which
		// peers the flood reaches — exactly the race inherent to
		// advertisements and forwards crossing on the wire.
		m.b.InjectForwarded(v.Msg)
		// Multi-hop: flood onward, away from the incoming link,
		// preserving the true origin.
		m.forward(v.Msg, from, v.Origin)
	}
}

// Controller is the paper's unit-controller node: it assigns broker
// addresses and records the network's link map so experiments can build
// topologies declaratively. Safe for concurrent use. Links are validated
// as they are added: Link refuses self links, duplicate links, links
// between unregistered brokers, and — because Member forwarding floods
// away from the arrival link and would deliver duplicates forever on a
// cycle — any link that would close a cycle.
type Controller struct {
	mu       sync.Mutex
	nextAddr int
	addrs    map[string]int
	links    [][2]string
}

// NewController returns an empty controller.
func NewController() *Controller {
	return &Controller{addrs: make(map[string]int)}
}

// Register assigns (or returns the existing) address for a broker.
func (c *Controller) Register(brokerID string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.addrs[brokerID]; ok {
		return a
	}
	c.nextAddr++
	c.addrs[brokerID] = c.nextAddr
	return c.nextAddr
}

// Address returns a broker's assigned address (0 when unregistered).
func (c *Controller) Address(brokerID string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addrs[brokerID]
}

// Brokers reports how many brokers are registered.
func (c *Controller) Brokers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.addrs)
}

// Link records a link between two registered brokers after validating
// it: self links, duplicates, unregistered endpoints and cycles are
// rejected with a descriptive error. Cycle detection walks the recorded
// links — if both endpoints are already connected, adding the link would
// close a loop, which Member forwarding (flood away from the arrival
// link) would turn into endless duplicate deliveries.
func (c *Controller) Link(a, b string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a == b {
		return fmt.Errorf("brokernet: self link %q-%q rejected", a, b)
	}
	if c.addrs[a] == 0 || c.addrs[b] == 0 {
		return fmt.Errorf("brokernet: link between unregistered brokers %q-%q", a, b)
	}
	for _, l := range c.links {
		if (l[0] == a && l[1] == b) || (l[0] == b && l[1] == a) {
			return fmt.Errorf("brokernet: duplicate link %q-%q", a, b)
		}
	}
	if path := c.pathLocked(a, b); path != nil {
		return fmt.Errorf("brokernet: link %q-%q would close a cycle (already connected via %v); a cycle duplicates every forwarded message", a, b, path)
	}
	c.links = append(c.links, [2]string{a, b})
	return nil
}

// AddLink is Link with panic-on-error semantics, for statically wired
// topologies where a bad link is a programming error.
func (c *Controller) AddLink(a, b string) {
	if err := c.Link(a, b); err != nil {
		panic(err.Error())
	}
}

// pathLocked returns the broker path from a to b over the recorded links
// (nil when disconnected). BFS with parent tracking; controller lock
// held.
func (c *Controller) pathLocked(a, b string) []string {
	adj := make(map[string][]string)
	for _, l := range c.links {
		adj[l[0]] = append(adj[l[0]], l[1])
		adj[l[1]] = append(adj[l[1]], l[0])
	}
	parent := map[string]string{a: a}
	queue := []string{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == b {
			var path []string
			for n := b; ; n = parent[n] {
				path = append([]string{n}, path...)
				if n == a {
					return path
				}
			}
		}
		for _, nb := range adj[cur] {
			if _, seen := parent[nb]; !seen {
				parent[nb] = cur
				queue = append(queue, nb)
			}
		}
	}
	return nil
}

// Links returns the recorded link list.
func (c *Controller) Links() [][2]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][2]string(nil), c.links...)
}

// StarLinks registers the given brokers and links every other broker to
// the first (hub), the topology used for the paper's DBN tests.
func (c *Controller) StarLinks(brokerIDs []string) {
	for _, id := range brokerIDs {
		c.Register(id)
	}
	for _, id := range brokerIDs[1:] {
		c.AddLink(brokerIDs[0], id)
	}
}

// ChainLinks registers the brokers and links them in a line.
func (c *Controller) ChainLinks(brokerIDs []string) {
	for _, id := range brokerIDs {
		c.Register(id)
	}
	for i := 1; i < len(brokerIDs); i++ {
		c.AddLink(brokerIDs[i-1], brokerIDs[i])
	}
}

// Routes computes shortest-path hop counts between all pairs of
// registered brokers over the recorded links (BFS per source). It is the
// "very efficient algorithm to find a shortest route" sanity check used
// by tests and by topology validation.
func (c *Controller) Routes() map[string]map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.routesLocked()
}

// routesLocked is Routes with the controller lock held.
func (c *Controller) routesLocked() map[string]map[string]int {
	adj := make(map[string][]string)
	for _, l := range c.links {
		adj[l[0]] = append(adj[l[0]], l[1])
		adj[l[1]] = append(adj[l[1]], l[0])
	}
	out := make(map[string]map[string]int)
	for src := range c.addrs {
		dist := map[string]int{src: 0}
		queue := []string{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range adj[cur] {
				if _, seen := dist[nb]; !seen {
					dist[nb] = dist[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
		out[src] = dist
	}
	return out
}

// ValidateTree reports an error when the recorded topology is not a tree
// (connected and acyclic), the shape Member forwarding assumes. Link
// rejects cycles as they are added, so in practice this checks
// connectedness: every registered broker must be reachable. The whole
// check runs under one lock hold, so it validates a single consistent
// snapshot even while brokers register concurrently.
func (c *Controller) ValidateTree() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.addrs)
	if n == 0 {
		return nil
	}
	if len(c.links) != n-1 {
		return fmt.Errorf("brokernet: %d links for %d brokers, a tree needs %d", len(c.links), n, n-1)
	}
	routes := c.routesLocked()
	for src := range c.addrs {
		if len(routes[src]) != n {
			return fmt.Errorf("brokernet: topology is disconnected from %q", src)
		}
	}
	return nil
}
