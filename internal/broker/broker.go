// Package broker implements the NaradaBrokering-style message broker at
// the heart of the reproduction: topic and queue destinations, per-
// subscription JMS selectors, AUTO/CLIENT acknowledgement bookkeeping,
// durable subscriptions, message expiration, and per-connection /
// per-pending-message memory accounting.
//
// The broker core is written sans-I/O: it consumes protocol frames via
// OnFrame and emits frames through an Env interface. The same core runs
// under the discrete-event simulator (package simbroker), where Env
// charges virtual CPU time and JVM heap, and behind a real TCP listener
// (cmd/naradad), where Env writes to sockets. Memory accounting is what
// produces the paper's scalability cliff: each connection costs a thread
// stack, so a 1 GB heap refuses new connections near 4000 of them, exactly
// as the paper's broker "ran out of memory to create new threads to serve
// more incoming connections".
//
// # Three layers
//
// The core is split into three explicit layers:
//
//   - The session layer (sessions.go) owns the connection table,
//     per-connection subscription registries, per-subscription ack
//     bookkeeping, and admission/memory accounting (OnConnOpen /
//     OnConnClose / handleSubscribe / handleAck).
//   - The destination layer (shard.go, topics.go, queues.go,
//     durables.go, snapshot.go) owns topic, queue and durable state. It
//     is partitioned into Config.Shards lock-guarded shards keyed by
//     destination-name hash; each shard owns the subscription indexes
//     and backlogs of its destinations.
//   - The egress layer (fanplan.go, stats.go) emits Deliver frames —
//     or, when a wide fan-out is grouped into per-connection runs,
//     DeliverBatch carriers — and keeps all counters in atomics, so
//     Stats() and PendingCount() are safe to call from any goroutine at
//     any time.
//
// # Concurrency contract
//
// The broker takes its internal locks unconditionally, so OnFrame,
// OnConnOpen and OnConnClose are safe to call from any number of
// goroutines provided (a) the Env implementation is itself safe for
// concurrent use and (b) frames of one connection are delivered by a
// single goroutine at a time (every transport reads a connection with
// one reader). Lock order is durableMu → shard.mu → {conn.mu, sub.mu,
// durableState.mu}; the latter three are leaf locks — nothing is ever
// acquired while holding one, and they never nest with each other. Env
// methods are invoked with broker locks held (on the publish path, only
// a subscription or durable leaf lock) and must not call back into the
// broker synchronously (bindings that need to drop a connection from
// inside Env.Send defer the OnConnClose to another goroutine).
//
// Topic publishes do not take shard locks at all: routing reads a
// copy-on-write snapshot published through an atomic pointer
// (snapshot.go), and per-subscriber delivery state synchronizes on the
// leaf locks. The shard lock is the write-side lock for every index
// mutation (subscribe/unsubscribe/durable churn) and for queue
// operations, whose enqueue/drain cycle is mutation-heavy; Stats meters
// it (ShardLock*).
//
// With a single calling goroutine — the discrete-event simulator's
// kernel — execution is bit-for-bit identical for any shard count,
// which is what keeps the paper reproduction
// (TestExperimentDeterminism) byte-identical: the shards are lock
// domains, not worker goroutines, so parallelism only arises when
// multiple callers actually overlap.
//
// Shard-safe API (callable from any goroutine): OnFrame, OnConnOpen,
// OnConnClose, InjectForwarded, CountForwardOut, Stats, PendingCount,
// Topics, TopicSubscribers, TopicSelectorGroups, ShardOf, NumShards,
// SetForwarder, SetInterestFunc, SetJournal. The forwarding seam is
// shard-safe: registration is atomic, the interest callback fires under
// the destination shard's lock (lock order durableMu → shard.mu), and
// an observer that guards its own state with a lock *below* the shard
// locks — acquired under them, never holding it while calling back into
// the broker's locked paths — composes race-free (package brokernet is
// the reference observer).
//
// # Subscription index
//
// The publish hot path is indexed rather than scanned. Each topic
// partitions its subscriptions into a fast set — subscriptions whose
// selector provably accepts every message (empty or constant-TRUE
// selectors) — delivered without any evaluation, and selector groups:
// selector-bearing subscriptions grouped by their selector source text,
// so each distinct selector expression's compiled program
// (selector.Program) evaluates once per published message no matter how
// many subscribers share it. On top of the groups each topic route
// carries a content-based matching index (package predindex) naming the
// few groups and buffering durables a message could match, so a publish
// evaluates one program where a thousand disjoint selectors are
// registered. Durable subscriptions are indexed by topic name, so a
// publish touches only the durables of its own topic. All index
// structures are ordered slices (subscribe order; groups by first
// appearance), which makes fan-out order — and therefore the
// discrete-event simulation — deterministic.
//
// # Zero-copy fan-out
//
// The broker freezes every message it accepts (message.Freeze) and fans
// the one frozen value out by reference: deliveries, durable backlogs
// and queue backlogs all share it, so a 1000-subscriber fan-out costs
// zero message copies instead of 1000 deep clones. Deliver frames come
// from a pool (wire.GetDeliver) and are returned by the transport that
// consumes them; a binding that cannot guarantee consume-exactly-once
// (the simulator, whose unreliable transports retransmit frames) sets
// Config.SerialEnv and receives GC-managed frames instead. Clone is
// reserved for paths that genuinely need a private mutable copy.
//
// # Fan-out execution
//
// A topic publish collects its matched subscriptions into a pooled plan
// and then delivers the plan on the publishing goroutine (fanplan.go).
// Below batchFanoutThreshold matched subscriptions — and always under
// Config.SerialEnv — delivery is a per-frame loop in matched order,
// which keeps single-subscriber latency and the simulator's figures
// untouched. At or above it the matched set is grouped into
// per-connection runs, and each run is emitted as one pooled
// wire.DeliverBatch carrier instead of N Deliver frames. Per-connection
// delivery order holds because one goroutine walks every run in matched
// order, and the publish delivers every run before its PubAck, so
// per-publisher ordering across consecutive publishes is unchanged. See
// fanplan.go for the one emission-order relaxation and stats.go for the
// egress meters.
package broker

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"gridmon/internal/message"
	"gridmon/internal/wire"
)

// Env abstracts the resources a broker consumes. Every Env call runs on
// the goroutine that called into the broker, so the implementation must
// be safe for concurrent use exactly when the binding calls into the
// broker from more than one goroutine.
// Send/Alloc/Free/Now are called with broker leaf or shard locks held
// and must not call back into the broker synchronously; AllocConn and
// FreeConn are serialized by the broker's session lock.
type Env interface {
	// Now returns the current time in nanoseconds (virtual or wall).
	Now() int64
	// Send emits a frame to a client connection.
	Send(conn ConnID, f wire.Frame)
	// CloseConn asks the binding to drop a client connection.
	CloseConn(conn ConnID)
	// AllocConn reserves the per-connection resources (on the paper's
	// JVM 1.4 testbed, a native thread stack outside the Java heap),
	// failing when the budget is exhausted.
	AllocConn() error
	// FreeConn releases per-connection resources.
	FreeConn()
	// Alloc reserves message-heap bytes, failing when the limit is
	// reached.
	Alloc(n int64) error
	// Free releases message-heap bytes.
	Free(n int64)
}

// Config tunes broker resource behaviour.
type Config struct {
	// ID names the broker (used in CONNECTED and broker-network frames).
	ID string
	// MemPerPendingOverhead is the per-pending-delivery bookkeeping cost
	// added to the message's encoded size.
	MemPerPendingOverhead int64
	// MaxPendingPerSub bounds unacknowledged deliveries per subscription;
	// 0 means unbounded (memory still applies).
	MaxPendingPerSub int
	// MaxQueueBacklog bounds messages stored on a queue with no
	// consumers; 0 means unbounded (memory still applies).
	MaxQueueBacklog int
	// MaxDurableBacklog bounds messages stored for a disconnected
	// durable subscriber; 0 means unbounded (memory still applies).
	MaxDurableBacklog int
	// Shards partitions the destination layer into this many
	// lock-guarded shards keyed by destination-name hash. 0 and 1 both
	// mean a single shard, the default for the deterministic
	// simulation. Sharding changes which publishes can
	// proceed concurrently, never what any single operation does: with
	// one calling goroutine the broker behaves identically for any S.
	Shards int
	// SerialEnv declares what the binding's Env promises: it is not safe
	// for concurrent use and may retain the frames it is sent (the
	// simulator: a single-threaded kernel whose unreliable transports
	// keep frames queued for retransmission). The broker then delivers
	// every fan-out per frame — no wire.DeliverBatch carriers — and
	// emits GC-managed Deliver frames instead of pooled ones
	// (wire.GetDeliver), whose consume-exactly-once ownership rule such
	// a transport cannot keep.
	SerialEnv bool
}

// DefaultConfig returns the configuration used in the paper reproduction.
func DefaultConfig(id string) Config {
	return Config{
		ID:                    id,
		MemPerPendingOverhead: 200,
		MaxPendingPerSub:      0,
		MaxQueueBacklog:       100000,
		MaxDurableBacklog:     100000,
	}
}

// ErrConnRefused is returned by OnConnOpen when the per-connection
// resource budget (thread stacks, on the paper's testbed) is exhausted.
var ErrConnRefused = errors.New("broker: connection refused (out of memory)")

// Forwarder lets a broker-network layer observe local publishes and inject
// remote ones; see package brokernet. Shard-safe: OnLocalPublish runs on
// the publishing goroutine, before local delivery. For topics no shard
// lock is held, so the ordering guarantee is per-publisher (each
// publisher's messages reach peers in publish order, which is all JMS
// promises); for queues it runs under the destination shard's lock. The
// implementation must not call back into the broker's locked paths
// (OnFrame/OnConnOpen/OnConnClose/InjectForwarded) from inside the
// callback; atomic counter methods (CountForwardOut, Stats) are fine.
type Forwarder interface {
	// OnLocalPublish is invoked for every unexpired message accepted
	// from a local client, before local delivery.
	OnLocalPublish(m *message.Message)
}

// Broker is the sans-I/O broker core.
type Broker struct {
	env Env
	cfg Config

	// Session layer: connection table and per-conn subscriptions.
	sessions sessionTable

	// Destination layer: topics/queues/durable indexes partitioned into
	// lock-guarded shards by destination-name hash.
	shards []*shard

	// Durable directory: name → state, spanning shards (a durable can be
	// recreated on a topic that hashes elsewhere). durableMu serializes
	// attach/detach/destroy; the state itself is guarded by the shard of
	// its current topic. Lock order: durableMu before any shard.mu.
	durableMu sync.Mutex
	durables  map[string]*durableState

	// Egress layer: atomic counters (stats.go).
	stats statCounters

	// Forwarding seam (shard-safe): the broker-network hook and the
	// topic-interest observer, registered atomically so bindings may
	// install them while frames are already flowing. Both fire under
	// shard locks; see Forwarder and SetInterestFunc for the contract.
	forwarder  atomic.Pointer[Forwarder]
	onInterest atomic.Pointer[func(topic string, add bool)]

	// Fan-out (fanplan.go): pooled per-publish plans, and the
	// matched-target count at which a plan is delivered as batched
	// per-connection runs — always batchFanoutThreshold in production,
	// a field only so in-package tests can force batching on small
	// fan-outs.
	fanThreshold int
	fanPlans     sync.Pool

	// Persistence seam (journal.go): mutation observer for durable and
	// queue state, registered atomically like the forwarder. Nil (the
	// default) costs one atomic load per mutation and changes nothing.
	journal atomic.Pointer[Journal]
}

// New returns a broker core using env for I/O and resources.
func New(env Env, cfg Config) *Broker {
	if cfg.ID == "" {
		cfg.ID = "broker"
	}
	b := &Broker{
		env: env, cfg: cfg,
		durables:     make(map[string]*durableState),
		fanThreshold: batchFanoutThreshold,
	}
	b.sessions.init()
	b.shards = make([]*shard, max(cfg.Shards, 1))
	for i := range b.shards {
		b.shards[i] = newShard()
	}
	return b
}

// ID returns the broker's identifier.
func (b *Broker) ID() string { return b.cfg.ID }

// Config returns the broker's effective configuration (bindings force
// some fields, e.g. the simulator host sets SerialEnv).
func (b *Broker) Config() Config { return b.cfg }

// SetForwarder installs the broker-network hook. Shard-safe:
// registration is atomic and takes effect for every publish that
// acquires its destination shard lock afterwards; see Forwarder for the
// callback contract.
func (b *Broker) SetForwarder(f Forwarder) {
	if f == nil {
		b.forwarder.Store(nil)
		return
	}
	b.forwarder.Store(&f)
}

// SetInterestFunc installs a callback fired when the broker gains or
// loses its last local subscription on a topic. Shard-safe: registration
// is atomic; the callback runs with the topic's shard lock held and must
// not call back into the broker's locked paths. Interest transitions on
// topics of different shards may fire concurrently, so the observer
// guards its own state (with a lock ordered below the shard locks).
func (b *Broker) SetInterestFunc(fn func(topic string, add bool)) {
	if fn == nil {
		b.onInterest.Store(nil)
		return
	}
	b.onInterest.Store(&fn)
}

// notifyInterest fires the interest observer, if any. Shard lock held.
func (b *Broker) notifyInterest(topic string, add bool) {
	if fn := b.onInterest.Load(); fn != nil {
		(*fn)(topic, add)
	}
}

// TopicSubscribers reports how many local subscriptions a topic has
// (bindings use it to charge selector-matching CPU time). Shard-safe.
func (b *Broker) TopicSubscribers(name string) int {
	sh := b.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if t := sh.topics[name]; t != nil {
		return t.subs
	}
	return 0
}

// TopicSelectorGroups reports how many distinct selector programs a
// publish on the topic evaluates: one per selector group, zero for fast
// (no-selector) subscriptions. Note the simulator binding deliberately
// does NOT use this: it charges selector CPU per subscriber, modelling
// the paper's linear-scan Java broker. This accessor exists for bindings
// (and tests) that want to model or observe the indexed broker itself.
// Shard-safe.
func (b *Broker) TopicSelectorGroups(name string) int {
	sh := b.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if t := sh.topics[name]; t != nil {
		return t.route.groups
	}
	return 0
}

// Topics returns the names of topics with at least one local subscriber,
// sorted for deterministic iteration by callers. Shard-safe (each shard
// is snapshotted in turn; concurrent subscribes may land between
// snapshots).
func (b *Broker) Topics() []string {
	var out []string
	for _, sh := range b.shards {
		sh.mu.Lock()
		for name, t := range sh.topics {
			if t.subs > 0 {
				out = append(out, name)
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// OnFrame processes one protocol frame from a client connection. Unknown
// connections are ignored (the binding may race a close). Shard-safe,
// provided each connection's frames arrive from one goroutine at a time.
func (b *Broker) OnFrame(id ConnID, f wire.Frame) {
	c := b.sessions.lookup(id)
	if c == nil {
		return
	}
	switch v := f.(type) {
	case wire.Connect:
		c.mu.Lock()
		c.clientID = v.ClientID
		c.mu.Unlock()
		b.env.Send(id, wire.Connected{BrokerID: b.cfg.ID})
	case wire.Subscribe:
		b.handleSubscribe(c, v)
	case wire.Unsubscribe:
		c.mu.Lock()
		sub := c.subs[v.SubID]
		delete(c.subs, v.SubID)
		c.mu.Unlock()
		if sub != nil {
			b.dropSubscription(sub, true)
		}
	case wire.Publish:
		b.handlePublish(c, v)
	case wire.Ack:
		b.handleAck(c, v)
	case *wire.Ack:
		// Transports that pool ack frames pass them by pointer.
		b.handleAck(c, *v)
	case wire.Ping:
		b.env.Send(id, wire.Pong{Token: v.Token})
	case wire.Close:
		b.OnConnClose(id)
		b.env.CloseConn(id)
	}
}

func (b *Broker) handlePublish(c *conn, v wire.Publish) {
	// The broker owns the message from here on: freeze it so the one
	// value can be shared by reference across forwarding, every local
	// delivery, and every stored backlog entry (routeLocal hands the
	// broker-network forwarder the sealed message too).
	m := v.Msg.Freeze()
	b.stats.published.Add(1)
	b.routeLocal(m, true)
	b.env.Send(c.id, wire.PubAck{Seq: v.Seq})
}

// InjectForwarded delivers a message that arrived from a peer broker to
// local subscribers only (no re-forwarding: the network layer floods
// onward itself, away from the incoming link). Shard-safe.
func (b *Broker) InjectForwarded(m *message.Message) {
	b.stats.forwardedIn.Add(1)
	b.routeLocal(m.Freeze(), false)
}

// CountForwardOut records that the network layer forwarded a message to a
// peer (for stats parity between routing modes). Shard-safe.
func (b *Broker) CountForwardOut() { b.stats.forwardedOut.Add(1) }
