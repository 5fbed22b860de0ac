// Session layer: the connection table, per-connection subscription
// registries, per-subscription acknowledgement bookkeeping, and
// connection admission against the Env's resource budget. Everything a
// client "is" lives here; what a client is subscribed *to* lives in the
// destination shards.

package broker

import (
	"fmt"
	"sync"

	"gridmon/internal/message"
	"gridmon/internal/selector"
	"gridmon/internal/wire"
)

// ConnID identifies a client connection within one broker.
type ConnID int64

// sessionTable is the connection registry. Its mutex guards only the
// table itself; per-connection state is guarded by each conn's own
// mutex, and neither lock is ever held while acquiring a shard lock.
type sessionTable struct {
	mu    sync.RWMutex
	conns map[ConnID]*conn
}

func (s *sessionTable) init() { s.conns = make(map[ConnID]*conn) }

func (s *sessionTable) lookup(id ConnID) *conn {
	s.mu.RLock()
	c := s.conns[id]
	s.mu.RUnlock()
	return c
}

type conn struct {
	id ConnID

	mu       sync.Mutex // guards clientID, subs, closed
	clientID string
	subs     map[int64]*subscription
	closed   bool
}

type pendingDelivery struct {
	tag  int64
	cost int64 // heap bytes charged
}

// subscription index membership is owned by the shard of its
// destination (touched only with sub.shard.mu held); delivery state —
// pending, nextTag, detached — is guarded by the subscription's own
// leaf lock, because the lock-free publish path delivers without any
// shard lock. sub.mu is a leaf: nothing is acquired while holding it.
type subscription struct {
	conn        *conn
	shard       *shard // owning destination shard, fixed at subscribe
	id          int64
	dest        message.Destination
	sel         *selector.Selector
	ackMode     message.AckMode
	durableName string

	mu       sync.Mutex
	detached bool // set at drop; late snapshot deliveries are skipped
	nextTag  int64
	pending  map[int64]pendingDelivery
}

// OnConnOpen admits a new client connection, charging its memory cost.
// The binding must call this before delivering any frames for the
// connection and must close the transport if an error is returned.
// Shard-safe; admission is serialized by the session lock.
func (b *Broker) OnConnOpen(id ConnID) error {
	b.sessions.mu.Lock()
	if _, dup := b.sessions.conns[id]; dup {
		b.sessions.mu.Unlock()
		panic(fmt.Sprintf("broker: duplicate conn id %d", id))
	}
	if err := b.env.AllocConn(); err != nil {
		b.sessions.mu.Unlock()
		b.stats.refusedConns.Add(1)
		return fmt.Errorf("%w: %v", ErrConnRefused, err)
	}
	b.sessions.conns[id] = &conn{id: id, subs: make(map[int64]*subscription)}
	n := int64(len(b.sessions.conns))
	b.stats.connections.Store(n)
	if n > b.stats.peakConnections.Load() {
		b.stats.peakConnections.Store(n)
	}
	b.sessions.mu.Unlock()
	return nil
}

// OnConnClose releases a connection and all its subscriptions. Durable
// subscriptions revert to the disconnected state and begin buffering.
// Shard-safe and idempotent.
func (b *Broker) OnConnClose(id ConnID) {
	b.sessions.mu.Lock()
	c, ok := b.sessions.conns[id]
	if !ok {
		b.sessions.mu.Unlock()
		return
	}
	delete(b.sessions.conns, id)
	b.stats.connections.Store(int64(len(b.sessions.conns)))
	b.sessions.mu.Unlock()

	// Mark the conn closed so a racing subscribe cannot install into a
	// dead connection, and snapshot the subscriptions to drop.
	c.mu.Lock()
	c.closed = true
	subs := make([]*subscription, 0, len(c.subs))
	for _, sub := range c.subs {
		subs = append(subs, sub)
	}
	c.subs = make(map[int64]*subscription)
	c.mu.Unlock()

	for _, sub := range subs {
		b.dropSubscription(sub, false)
	}
	b.env.FreeConn()
}

func (b *Broker) handleSubscribe(c *conn, v wire.Subscribe) {
	c.mu.Lock()
	_, dup := c.subs[v.SubID]
	c.mu.Unlock()
	if dup {
		// Protocol violation; drop the connection.
		b.OnConnClose(c.id)
		b.env.CloseConn(c.id)
		return
	}
	sel, err := selector.Parse(v.Selector)
	if err != nil {
		// JMS raises InvalidSelectorException at subscribe time; the
		// protocol surfaces it by closing the subscription attempt. We
		// signal with SubOK carrying a negative id.
		b.env.Send(c.id, wire.SubOK{SubID: -v.SubID})
		return
	}
	ackMode := v.AckMode
	if ackMode == 0 {
		ackMode = message.AutoAck
	}
	sub := &subscription{
		conn:        c,
		id:          v.SubID,
		dest:        v.Dest,
		sel:         sel,
		ackMode:     ackMode,
		durableName: v.DurableName,
		pending:     make(map[int64]pendingDelivery),
	}
	switch v.Dest.Kind {
	case message.TopicKind:
		b.subscribeTopic(c, sub, v)
	case message.QueueKind:
		b.subscribeQueue(c, sub, v)
	default:
		b.env.Send(c.id, wire.SubOK{SubID: -v.SubID})
	}
}

// subscribeTopic installs a topic subscription: durable attach (under
// the durable directory lock), index insertion, interest callback,
// registration on the conn, durable backlog replay, route republish and
// SubOK — all under one hold of the topic's shard lock. The route is
// republished before SubOK: the reply promises delivery of every later
// publish, and the lock-free publish path reads only the published
// route. The backlog goes out before the republish, so no live delivery
// can overtake it.
func (b *Broker) subscribeTopic(c *conn, sub *subscription, v wire.Subscribe) {
	var d *durableState
	if v.Durable && v.DurableName != "" {
		b.durableMu.Lock()
		defer b.durableMu.Unlock()
		var ok bool
		if d, ok = b.attachDurable(sub); !ok {
			b.env.Send(c.id, wire.SubOK{SubID: -v.SubID})
			return
		}
	}
	sh := b.shardFor(v.Dest.Name)
	sub.shard = sh
	b.lockShard(sh)
	defer sh.mu.Unlock()
	t := sh.topic(v.Dest.Name)
	wasEmpty := t.subs == 0
	t.add(sub)
	if wasEmpty {
		b.notifyInterest(t.name, true)
	}
	if !b.registerSub(c, sub) {
		// The connection closed mid-subscribe: undo the installation.
		t.remove(sub)
		if t.subs == 0 {
			b.notifyInterest(t.name, false)
		}
		sh.dropIfIdle(t)
		b.refreshTopicRoute(sh, v.Dest.Name)
		return
	}
	if d != nil {
		b.goLive(d, sub)
	}
	b.refreshTopicRoute(sh, v.Dest.Name)
	b.env.Send(c.id, wire.SubOK{SubID: v.SubID})
}

func (b *Broker) subscribeQueue(c *conn, sub *subscription, v wire.Subscribe) {
	sh := b.shardFor(v.Dest.Name)
	sub.shard = sh
	b.lockShard(sh)
	defer sh.mu.Unlock()
	q := sh.queues[v.Dest.Name]
	if q == nil {
		q = &queueState{name: v.Dest.Name}
		sh.queues[v.Dest.Name] = q
	}
	q.subs = append(q.subs, sub)
	if !b.registerSub(c, sub) {
		b.removeQueueSub(sh, q, sub)
		return
	}
	b.env.Send(c.id, wire.SubOK{SubID: v.SubID})
	// Deliver any backlog the subscription is entitled to.
	b.drainQueue(q)
}

// registerSub records the subscription on its connection, refusing when
// the connection has been closed concurrently. Called with the shard
// lock held (shard.mu → conn.mu is the one permitted nesting).
func (b *Broker) registerSub(c *conn, sub *subscription) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.subs[sub.id] = sub
	return true
}

// dropSubscription removes a subscription from its destination.
// unsubscribe distinguishes a client Unsubscribe (which also destroys
// durable state) from a connection close (which keeps it buffering).
// The caller has already detached the subscription from its conn.
func (b *Broker) dropSubscription(sub *subscription, unsubscribe bool) {
	if sub.durableName != "" {
		b.durableMu.Lock()
		defer b.durableMu.Unlock()
	}
	sh := sub.shard
	b.lockShard(sh)
	defer sh.mu.Unlock()
	// Detach under the subscription's leaf lock: a snapshot publish that
	// raced past the index removal sees the flag and skips the delivery
	// instead of allocating into a freed pending map.
	sub.mu.Lock()
	sub.detached = true
	for _, pd := range sub.pending {
		b.env.Free(pd.cost)
	}
	b.stats.pending.Add(-int64(len(sub.pending)))
	sub.pending = make(map[int64]pendingDelivery)
	sub.mu.Unlock()
	switch sub.dest.Kind {
	case message.TopicKind:
		defer b.refreshTopicRoute(sh, sub.dest.Name)
		t := sh.topics[sub.dest.Name]
		if t != nil {
			t.remove(sub)
			if t.subs == 0 {
				b.notifyInterest(t.name, false)
			}
		}
		if sub.durableName != "" {
			if d := b.durables[sub.durableName]; d != nil && d.active == sub {
				d.mu.Lock()
				d.active = nil
				if unsubscribe {
					for _, sm := range d.backlog {
						b.env.Free(sm.cost)
					}
					d.backlog = nil
					d.gone = true
				}
				d.mu.Unlock()
				if unsubscribe {
					delete(b.durables, sub.durableName)
					b.unindexDurable(sh, d)
					if j := b.loadJournal(); j != nil {
						j.DurableUnsubscribed(sub.durableName)
					}
				}
			}
		}
		if t != nil {
			sh.dropIfIdle(t)
		}
	case message.QueueKind:
		if q := sh.queues[sub.dest.Name]; q != nil {
			b.removeQueueSub(sh, q, sub)
		}
	}
}

func (b *Broker) handleAck(c *conn, v wire.Ack) {
	c.mu.Lock()
	sub := c.subs[v.SubID]
	c.mu.Unlock()
	if sub == nil {
		return
	}
	// Acknowledgement touches only the subscription's delivery state, so
	// its leaf lock suffices — acks no longer contend on the shard.
	sub.mu.Lock()
	defer sub.mu.Unlock()
	for _, tag := range v.Tags {
		if pd, ok := sub.pending[tag]; ok {
			b.env.Free(pd.cost)
			delete(sub.pending, tag)
			b.stats.acked.Add(1)
			b.stats.pending.Add(-1)
		}
	}
}
